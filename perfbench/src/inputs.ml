module Rng = Ftsched_util.Rng
module G = Ftsched_dag.Generators
module Protocol = Ftsched_serve.Protocol
module Serialize = Ftsched_schedule.Serialize

type shape = Dense | Sparse

let workloads = [ ("layered-dense", Dense); ("pegasus-sparse", Sparse) ]

let shape_of_workload name =
  match List.assoc_opt name workloads with
  | Some s -> s
  | None -> invalid_arg ("unknown workload " ^ name)

let derive ~seed purpose i = Hashtbl.hash (seed, purpose, i)

let instance shape ~seed ~n_tasks ~m =
  let rng = Rng.create ~seed in
  let dag =
    match shape with
    | Dense -> G.layered rng ~n_tasks ()
    | Sparse -> G.pegasus rng ~n_tasks ()
  in
  let platform =
    Ftsched_platform.Platform.random rng ~m ~delay_lo:0.5 ~delay_hi:1.0 ()
  in
  Ftsched_model.Instance.random_exec rng ~dag ~platform ()

let arrivals ~seed ~rate ~count =
  let rng = Rng.create ~seed in
  let t = ref 0. in
  Array.init count (fun _ ->
      t := !t +. Rng.exponential rng ~mean:(1. /. rate);
      !t)

type payload = { line : string; body : int }
type request = { due : float; payload : int; repeat : bool }

type serve = {
  bodies : string array;
  payloads : payload array;
  phases : (string * float * request array) list;
}

let pool_instances = 96
let serve_m = 8

(* A repeat names one of the distinct payloads first sent 40 to 200
   first-uses earlier: recent enough to sit in the server's 256-slot LRU,
   old enough that its first copy has usually been answered. *)
let repeat_window = (40, 200)

(* The seed changes what is asked, never how much: pool sizes are fixed,
   evenly spaced on a log scale from 40 to 300 tasks, and request kinds,
   pool entries and repeats are dealt from shuffled decks, so every seed
   has exactly the same proportions.  Latency is bimodal — stream
   requests and cache hits are cheap — and a median near the gap moves
   far on a small change in mix; queueing near saturation is as
   sensitive to the mean service time. *)
let pool_sizes rng =
  let lo = log 40. and hi = log 300. in
  let sizes =
    Array.init pool_instances (fun k ->
        int_of_float
          (Float.round
             (exp (lo +. ((hi -. lo) *. float_of_int k
                          /. float_of_int (pool_instances - 1))))))
  in
  Rng.shuffle rng sizes;
  sizes

(* Cards in random order, the whole deck before any card comes again. *)
let deck rng cards =
  let d = Array.copy cards and i = ref (Array.length cards) in
  fun () ->
    if !i = Array.length d then begin
      Rng.shuffle rng d;
      i := 0
    end;
    incr i;
    d.(!i - 1)

type kind = Ftsa | Mc_ftsa | Simulate | Stream

(* Per 20 first uses: 6 FTSA and 4 MC-FTSA schedules, 7 simulations and
   3 streams; then one arrival in 4 is a repeat.  No measured traffic
   exists to take a mix from, so this split, the log-uniform sizes, eps 1,
   one crash per simulation and 20 s streams are assumptions, chosen to
   load every request kind; serve-open figures hold for this mix only. *)
let kinds =
  Array.concat
    [ Array.make 6 Ftsa; Array.make 4 Mc_ftsa; Array.make 7 Simulate;
      Array.make 3 Stream ]

let serve shape ~seed ~phases =
  let sizes = pool_sizes (Rng.create ~seed:(derive ~seed "serve-pool" 0)) in
  let insts =
    Array.init pool_instances (fun i ->
        instance shape
          ~seed:(derive ~seed "serve-instance" i)
          ~n_tasks:sizes.(i) ~m:serve_m)
  in
  let sched_docs =
    Array.init pool_instances (fun i ->
        Serialize.schedule_to_string
          (Ftsched_core.Ftsa.schedule ~seed:i insts.(i) ~eps:1))
  in
  let bodies =
    Array.append (Array.map Serialize.instance_to_string insts) sched_docs
  in
  let rng = Rng.create ~seed:(derive ~seed "serve-requests" 0) in
  let next_kind = deck rng kinds in
  let next_instance = deck rng (Array.init pool_instances Fun.id) in
  let next_schedule = deck rng (Array.init pool_instances Fun.id) in
  let payloads = ref [] and n_payloads = ref 0 in
  let seen = Hashtbl.create 1024 in
  let rec fresh kind =
    let seed = Rng.int rng 1_000_000 in
    let req, body =
      match kind with
      | Ftsa ->
          ( Protocol.Schedule { algo = "ftsa"; eps = 1; seed; body = "" },
            next_instance () )
      | Mc_ftsa ->
          ( Protocol.Schedule { algo = "mc-ftsa"; eps = 1; seed; body = "" },
            next_instance () )
      | Simulate ->
          ( Protocol.Simulate { crashes = 1; seed; body = "" },
            pool_instances + next_schedule () )
      | Stream -> (Protocol.Stream { seed; duration = 20.; m = serve_m }, -1)
    in
    let line = Protocol.request_line req ~budget:infinity in
    if Hashtbl.mem seen (line, body) then fresh kind
    else begin
      Hashtbl.add seen (line, body) ();
      payloads := { line; body } :: !payloads;
      incr n_payloads;
      !n_payloads - 1
    end
  in
  let next_slot = deck rng [| true; false; false; false |] in
  let phases =
    List.mapi
      (fun k (name, rate, count) ->
        let due =
          arrivals ~seed:(derive ~seed "arrivals" k) ~rate ~count
        in
        let first = !n_payloads in
        let lo, hi = repeat_window in
        let reqs =
          Array.map
            (fun due ->
              let sent = !n_payloads - first in
              if next_slot () && sent > lo then
                let back = Rng.int_in rng lo (min hi (sent - 1)) in
                { due; payload = !n_payloads - back; repeat = true }
              else { due; payload = fresh (next_kind ()); repeat = false })
            due
        in
        (name, rate, reqs))
      phases
  in
  { bodies; payloads = Array.of_list (List.rev !payloads); phases }

let frame s i =
  let p = s.payloads.(i) in
  Protocol.encode_frame
    (if p.body < 0 then p.line else p.line ^ "\n" ^ s.bodies.(p.body))

let digest s =
  let b = Buffer.create 4096 in
  Array.iter (fun body -> Buffer.add_string b (Digest.string body)) s.bodies;
  Array.iter
    (fun p -> Printf.bprintf b "%s/%d;" p.line p.body)
    s.payloads;
  List.iter
    (fun (name, rate, reqs) ->
      Printf.bprintf b "%s %h:" name rate;
      Array.iter
        (fun r -> Printf.bprintf b "%h,%d,%b;" r.due r.payload r.repeat)
        reqs)
    s.phases;
  Digest.to_hex (Digest.string (Buffer.contents b))
