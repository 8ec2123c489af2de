type t = { id : int; parent : int; name : string; start : float; stop : float }

let on = Atomic.make false
let set_enabled b = Atomic.set on b
let enabled () = Atomic.get on
let next_id = Atomic.make 0

(* One buffer per domain, registered once so [collect] can find it. *)
type buffer = { mutable spans : t list; mutable stack : int list }

let registry : buffer list ref = ref []
let registry_lock = Mutex.create ()

let buffer_key =
  Domain.DLS.new_key (fun () ->
      let b = { spans = []; stack = [] } in
      Mutex.protect registry_lock (fun () -> registry := b :: !registry);
      b)

let current () =
  match (Domain.DLS.get buffer_key).stack with id :: _ -> id | [] -> -1

let with_span ?parent name f =
  if not (Atomic.get on) then f ()
  else begin
    let b = Domain.DLS.get buffer_key in
    let parent =
      match parent with
      | Some p -> p
      | None -> ( match b.stack with id :: _ -> id | [] -> -1)
    in
    let id = Atomic.fetch_and_add next_id 1 in
    let saved = b.stack in
    b.stack <- id :: saved;
    let start = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        let stop = Unix.gettimeofday () in
        b.stack <- saved;
        b.spans <- { id; parent; name; start; stop } :: b.spans)
      f
  end

let collect () =
  Mutex.protect registry_lock (fun () ->
      let all = List.concat_map (fun b -> b.spans) !registry in
      List.iter (fun b -> b.spans <- []) !registry;
      List.sort (fun a b -> compare (a.start, a.id) (b.start, b.id)) all)

let duration s = s.stop -. s.start

let layer s =
  match String.index_opt s.name '.' with
  | Some i -> String.sub s.name 0 i
  | None -> s.name

let union_length intervals =
  let sorted =
    List.sort compare (List.filter (fun (a, b) -> b > a) intervals)
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0., None) sorted
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

let clip s (a, b) = (Float.max a s.start, Float.min b s.stop)

let self_time s children =
  duration s
  -. union_length (List.map (fun c -> clip s (c.start, c.stop)) children)

type summary = { busy : float; self : float; count : int }

let summarize spans =
  let children = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.add children s.parent s) spans;
  let acc = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self = self_time s (Hashtbl.find_all children s.id) in
      let prev =
        Option.value (Hashtbl.find_opt acc s.name)
          ~default:{ busy = 0.; self = 0.; count = 0 }
      in
      Hashtbl.replace acc s.name
        {
          busy = prev.busy +. duration s;
          self = prev.self +. self;
          count = prev.count + 1;
        })
    spans;
  List.sort compare (List.of_seq (Hashtbl.to_seq acc))

let busy summary name =
  match List.assoc_opt name summary with Some s -> s.busy | None -> 0.

let unattributed_share ~wall:(w0, w1) spans =
  let wall = w1 -. w0 in
  if wall <= 0. then 0.
  else
    let covered =
      union_length
        (List.map (fun s -> (Float.max w0 s.start, Float.min w1 s.stop)) spans)
    in
    Float.max 0. (1. -. (covered /. wall))
