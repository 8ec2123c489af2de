module Rng = Ftsched_util.Rng
module Event_sim = Ftsched_sim.Event_sim
module Scenario = Ftsched_sim.Scenario
module Recovery = Ftsched_recovery.Recovery
module Schedule = Ftsched_schedule.Schedule
module Par = Ftsched_par.Par

let eps = 2
let m = 16
let n_tasks = 300

(* Eight instances, FTSA on even ones and MC-FTSA on odd ones: eight
   schedules, with twice the instance variety of four instances under
   both algorithms, which roughly halves the seed-to-seed spread of the
   campaign's cost. *)
let n_instances = 8
let kinds = [| "no-fault"; "eps-crashes"; "lossy"; "one-port"; "recovery" |]
(* A round replays every (schedule, scenario) pair twice: short enough
   that the median of the per-round rates passes over a slow stretch of
   the host, long enough to keep both domains busy. *)
let round_items = n_instances * Array.length kinds * 2
let jobs = 2
let rounds_per_s = function Inputs.Dense -> 1. | Inputs.Sparse -> 3.75

type target = { sched : Schedule.t; ftsa : bool; mstar : float }

type item = {
  ms : float;
  kind : int;
  events : int;
  retrans : int;
  injections : int;
  kills : int;
  defeated : bool;
  ok : bool;
  digest : string;
}

let workspace = Domain.DLS.new_key Recovery.workspace

let run_item targets ~seed ~parent index =
  let n_targets = Array.length targets in
  let tg = targets.(index mod n_targets) in
  let kind = index / n_targets mod Array.length kinds in
  let rng = Rng.create ~seed:(Inputs.derive ~seed "recover" index) in
  let idle = Array.make m infinity in
  let sim r = (r, 0, 0, true) in
  let t0 = Unix.gettimeofday () in
  let (r : Event_sim.result), injections, kills, complete =
    Span.with_span ~parent (if kind = 4 then "recovery.run" else "sim.run")
    @@ fun () ->
    match kind with
    | 0 -> sim (Event_sim.run tg.sched ~fail_times:idle)
    | 1 ->
        sim
          (Event_sim.run_timed tg.sched
             (Scenario.random_timed rng ~m ~count:eps ~horizon:tg.mstar))
    | 2 ->
        let src = Rng.int rng m in
        let dst = (src + 1 + Rng.int rng (m - 1)) mod m in
        let from_t = Rng.float rng (tg.mstar /. 2.) in
        let outage =
          Scenario.outage ~src ~dst ~from_t
            ~until_t:(from_t +. (tg.mstar /. 4.))
        in
        let faults =
          Scenario.lossy ~loss:0.02 ~outages:[ outage ] ~retries:3
            ~seed:(Rng.int rng 1_000_000) ()
        in
        sim (Event_sim.run ~faults tg.sched ~fail_times:idle)
    | 3 ->
        sim
          (Event_sim.run ~network:(Event_sim.Sender_ports 1) tg.sched
             ~fail_times:idle)
    | _ ->
        let fail_times = Array.copy idle in
        Array.iter
          (fun p -> fail_times.(p) <- Rng.float rng tg.mstar)
          (Rng.sample_distinct rng ~k:(eps + 1) ~n:m);
        let o =
          Recovery.run ~delta:(tg.mstar /. 50.)
            ~workspace:(Domain.DLS.get workspace) tg.sched ~fail_times
        in
        (o.Recovery.result, o.injections, o.kills, o.degraded.complete)
  in
  let ms = (Unix.gettimeofday () -. t0) *. 1000. in
  let tol = 1e-9 *. tg.mstar in
  (* Theorem 4.1 covers FTSA under ε crashes; MC-FTSA's strict plans may
     be defeated there (EXPERIMENTS.md), and message loss may defeat
     either — those are outcomes, not failures.  Contention and
     retransmissions only delay messages, so they cannot beat M*; a
     message lost for good can, as the replica it starves is skipped and
     frees its processor for the next one in the plan. *)
  let defeated = (kind = 1 || kind = 2) && r.latency = None in
  let ok =
    match (kind, r.latency) with
    | 0, Some l -> Float.abs (l -. tg.mstar) <= tol
    | 1, Some _ -> true
    | 1, None -> not tg.ftsa
    | 2, Some l -> r.lost_messages > 0 || l >= tg.mstar -. tol
    | 2, None -> true
    | 3, Some l -> l >= tg.mstar -. tol
    | 4, Some _ -> complete
    | _ -> false
  in
  let digest =
    Printf.sprintf "%d %d %s %d %d %d %d" index kind
      (match r.latency with Some l -> Printf.sprintf "%h" l | None -> "-")
      r.events_processed r.retransmissions injections kills
  in
  {
    ms;
    kind;
    events = r.events_processed;
    retrans = r.retransmissions;
    injections;
    kills;
    defeated;
    ok;
    digest;
  }

let setup shape ~seed =
  let targets =
    Array.init n_instances (fun i ->
        let inst =
          Inputs.instance shape
            ~seed:(Inputs.derive ~seed "recover-instance" i)
            ~n_tasks ~m
        in
        let ftsa = i mod 2 = 0 in
        let sched =
          if ftsa then Ftsched_core.Ftsa.schedule ~seed:i inst ~eps
          else Ftsched_core.Mc_ftsa.schedule ~seed:i inst ~eps
        in
        { sched; ftsa; mstar = Schedule.latency_lower_bound sched })
  in
  (* Spawn the pool's worker domains now rather than in the first round. *)
  ignore (Par.parallel_map ~jobs Fun.id [ 1; 2 ]);
  targets

let round targets ~seed ~jobs ~first ~count =
  Span.with_span "par.round" @@ fun () ->
  let parent = Span.current () in
  Par.parallel_map ~jobs (run_item targets ~seed ~parent)
    (List.init count (fun j -> first + j))

let campaign_digest items =
  Digest.to_hex
    (Digest.string (String.concat "\n" (List.map (fun i -> i.digest) items)))

let run shape ~seed ~seconds ~trace =
  let report = Report.create ~phase:"recover" in
  let times = Array.make 5 0. and targets = ref [||] in
  for k = 0 to 4 do
    let t0 = Unix.gettimeofday () in
    targets := setup shape ~seed;
    times.(k) <- Unix.gettimeofday () -. t0
  done;
  Report.set_setup report times;
  let targets = !targets in
  (* At least 1200 scenarios, so p99 has ten samples beyond it, and
     some 7 s of work at 20 s on a 2-core machine: sparse scenarios are
     four times cheaper, and their p99 needs the samples.  The round
     count never depends on elapsed time. *)
  let n_rounds =
    max
      (Pct.needed 99. * 6 / 5 / round_items + 1)
      (int_of_float (seconds *. rounds_per_s shape))
  in
  let t0 = Unix.gettimeofday () in
  let rounds =
    List.init n_rounds (fun r ->
        let a = Unix.gettimeofday () in
        let items =
          round targets ~seed ~jobs ~first:(r * round_items)
            ~count:round_items
        in
        (items, float_of_int round_items /. (Unix.gettimeofday () -. a)))
  in
  let wall = Unix.gettimeofday () -. t0 in
  let rates = Array.of_list (List.map snd rounds) in
  let rounds = List.map fst rounds in
  let items = List.concat rounds in
  List.iter (fun i -> Report.attempt report ~ok:i.ok) items;
  Array.iteri
    (fun k name ->
      let bad = List.filter (fun i -> i.kind = k && not i.ok) items in
      Report.check report (bad = []) "%d %s scenarios failed their check"
        (List.length bad) name)
    kinds;
  (* The campaign is a pure function of the seed: a slice replayed on one
     domain must give the same digest as on two. *)
  let slice = n_instances * Array.length kinds * 2 in
  let first_slice = List.filteri (fun i _ -> i < slice) items in
  let sequential = round targets ~seed ~jobs:1 ~first:0 ~count:slice in
  Report.check report
    (String.equal (campaign_digest first_slice) (campaign_digest sequential))
    "campaign digest equal at jobs 1 and 2";
  let samples = Array.of_list (List.map (fun i -> i.ms) items) in
  Report.metric report "recover.scenarios_per_s" ~unit:"1/s"
    (Pct.median rates);
  Report.percentile report "recover.p50_ms" ~samples ~p:50.;
  Report.percentile report "recover.p99_ms" ~samples ~p:99.;
  Report.note report
    "recover: %d scenarios in %d rounds on %d domains in %.3f s, digest %s"
    (List.length items) n_rounds jobs wall (campaign_digest items);
  if trace then begin
    let pass () =
      List.concat
        (List.init n_rounds (fun r ->
             round targets ~seed ~jobs ~first:(r * round_items)
               ~count:round_items))
    in
    (* Overhead compares the traced pass with a plain one run after it:
       both warm, unlike the first pass. *)
    Span.set_enabled true;
    let w0 = Unix.gettimeofday () in
    let traced = pass () in
    let w1 = Unix.gettimeofday () in
    Span.set_enabled false;
    ignore (pass ());
    let plain = Unix.gettimeofday () -. w1 in
    let spans = Span.collect () in
    let sum = Span.summarize spans in
    let busy = Span.busy sum in
    let total f = List.fold_left (fun a i -> a + f i) 0 traced in
    let sim_events = total (fun i -> if i.kind < 4 then i.events else 0) in
    let count name v =
      Report.metric report name ~unit:"count" (float_of_int v)
    in
    Report.metric report "sim.run_s" ~unit:"s" (busy "sim.run");
    count "sim.events" sim_events;
    Report.metric report "sim.events_per_s" ~unit:"1/s"
      (float_of_int sim_events /. busy "sim.run");
    count "sim.retransmissions" (total (fun i -> i.retrans));
    count "sim.defeated" (total (fun i -> Bool.to_int i.defeated));
    Report.metric report "recovery.run_s" ~unit:"s" (busy "recovery.run");
    count "recovery.injections" (total (fun i -> i.injections));
    count "recovery.kills" (total (fun i -> i.kills));
    let items_busy = busy "sim.run" +. busy "recovery.run" in
    Report.metric report "par.busy_s" ~unit:"s" items_busy;
    Report.metric report "par.efficiency" ~unit:"share"
      (items_busy /. (float_of_int jobs *. (w1 -. w0)));
    count "recover.samples" (List.length items);
    Report.metric report "trace.recover.overhead_share" ~unit:"share"
      (((w1 -. w0) /. plain) -. 1.);
    Report.metric report "trace.recover.unattributed_share" ~unit:"share"
      (Span.unattributed_share ~wall:(w0, w1)
         (List.filter (fun s -> s.Span.name <> "par.round") spans));
    Report.spans report sum
  end;
  report
