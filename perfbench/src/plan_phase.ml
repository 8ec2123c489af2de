module Instance = Ftsched_model.Instance
module Dag = Ftsched_dag.Dag
module Serialize = Ftsched_schedule.Serialize
module Trace = Ftsched_kernel.Trace
module Metrics = Ftsched_schedule.Metrics

let eps = 2
let m = 32

let n_tasks = function Inputs.Dense -> 5_000 | Inputs.Sparse -> 50_000

(* Instances per second of [--seconds]: three dense and two sparse at
   20 s, some 15 s and 20 s of work on a 2-core machine.  At least two,
   so the reported median is never a single instance's rate. *)
let instances_per_s = function Inputs.Dense -> 0.15 | Inputs.Sparse -> 0.1

let n_instances shape ~seconds =
  max 2 (int_of_float (Float.round (seconds *. instances_per_s shape)))

(* Set-up warms the same pipeline on a small instance, so the timed
   instances do not pay first-use costs. *)
let warm_tasks = function Inputs.Dense -> 300 | Inputs.Sparse -> 3_000

type tally = {
  mutable tasks : int;
  mutable edges : int;
  mutable bytes : int;
  mutable evaluate : float;
  mutable choose : float;
  mutable commit : float;
  mutable evals : int;
}

let add_stats tally tr =
  let st = Trace.stats tr in
  tally.evaluate <- tally.evaluate +. st.Metrics.evaluate_time;
  tally.choose <- tally.choose +. st.Metrics.choose_time;
  tally.commit <- tally.commit +. st.Metrics.commit_time;
  tally.evals <- tally.evals + st.Metrics.candidate_evals

(* One pass of the pipeline; every output is checked. *)
let pipeline report tally shape ~seed ~n_tasks =
  let span = Span.with_span in
  let traced = Span.enabled () in
  span "plan.instance" @@ fun () ->
  let rng = Ftsched_util.Rng.create ~seed in
  let dag =
    span "dag.build" (fun () ->
        match shape with
        | Inputs.Dense -> Ftsched_dag.Generators.layered rng ~n_tasks ()
        | Inputs.Sparse -> Ftsched_dag.Generators.pegasus rng ~n_tasks ())
  in
  let inst =
    span "model.instance" (fun () ->
        let platform =
          Ftsched_platform.Platform.random rng ~m ~delay_lo:0.5
            ~delay_hi:1.0 ()
        in
        Instance.random_exec rng ~dag ~platform ())
  in
  let levels =
    span "model.levels" (fun () -> Ftsched_model.Levels.bottom_levels inst)
  in
  Report.check report
    (Array.for_all (fun l -> Float.is_finite l && l > 0.) levels)
    "bottom levels are finite and positive";
  let with_trace f =
    if traced then begin
      let tr = Trace.create () in
      let s = f (Some tr) in
      add_stats tally tr;
      s
    end
    else f None
  in
  let ftsa =
    span "core.ftsa" (fun () ->
        with_trace (fun trace -> Ftsched_core.Ftsa.schedule ?trace inst ~eps))
  in
  let mc =
    span "core.mc_ftsa" (fun () ->
        with_trace (fun trace ->
            Ftsched_core.Mc_ftsa.schedule ?trace inst ~eps))
  in
  List.iter
    (fun (name, s) ->
      let valid =
        span "schedule.validate" (fun () -> Ftsched_schedule.Validate.check s)
      in
      let serialize s =
        span "schedule.serialize" (fun () -> Serialize.schedule_to_string s)
      in
      let text = serialize s in
      let parsed =
        span "schedule.parse" (fun () -> Serialize.schedule_of_string text)
      in
      let again = serialize parsed in
      let ok = Result.is_ok valid && String.equal text again in
      Report.check report (Result.is_ok valid)
        "%s schedule of seed %d validates" name seed;
      Report.check report (String.equal text again)
        "%s schedule of seed %d round-trips byte for byte" name seed;
      Report.attempt report ~ok;
      tally.bytes <- tally.bytes + (2 * String.length text))
    [ ("FTSA", ftsa); ("MC-FTSA", mc) ];
  tally.tasks <- tally.tasks + Dag.n_tasks dag;
  tally.edges <- tally.edges + Dag.n_edges dag

let new_tally () =
  {
    tasks = 0;
    edges = 0;
    bytes = 0;
    evaluate = 0.;
    choose = 0.;
    commit = 0.;
    evals = 0;
  }

(* The pipeline over a fixed instance list; returns the wall interval. *)
let timed_pass report tally shape ~seeds =
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun seed -> pipeline report tally shape ~seed ~n_tasks:(n_tasks shape))
    seeds;
  (t0, Unix.gettimeofday ())

let run shape ~seed ~seconds ~trace =
  let report = Report.create ~phase:"plan" in
  Report.set_setup report
    (Array.init 5 (fun k ->
         let t0 = Unix.gettimeofday () in
         pipeline report (new_tally ()) shape
           ~seed:(Inputs.derive ~seed "plan-warm" k)
           ~n_tasks:(warm_tasks shape);
         Unix.gettimeofday () -. t0));
  (* A fixed instance list: how many instances run depends on [seconds],
     never on how fast they ran.  Each instance is timed on its own and
     the median rate is reported, so one slow stretch of the host moves
     one sample rather than the result. *)
  let seeds =
    List.init (n_instances shape ~seconds) (fun k ->
        Inputs.derive ~seed "plan" k)
  in
  let tally = new_tally () in
  let rates =
    List.map
      (fun seed ->
        let before = tally.tasks in
        let t0, t1 = timed_pass report tally shape ~seeds:[ seed ] in
        float_of_int (tally.tasks - before) /. (t1 -. t0))
      seeds
  in
  Report.metric report "plan.tasks_per_s" ~unit:"1/s"
    (Pct.median (Array.of_list rates));
  Report.note report "plan: %d instances, %d tasks, %d edges; tasks/s %s"
    (List.length seeds) tally.tasks tally.edges
    (String.concat " " (List.map (Printf.sprintf "%.1f") rates));
  if trace then begin
    (* The first instance again, traced, then plain: overhead compares
       the two, both warm, unlike the first pass. *)
    let seeds = [ List.hd seeds ] in
    Span.set_enabled true;
    let traced = new_tally () in
    let w0, w1 = timed_pass report traced shape ~seeds in
    Span.set_enabled false;
    let p0, p1 = timed_pass report (new_tally ()) shape ~seeds in
    let spans = Span.collect () in
    let sum = Span.summarize spans in
    let busy = Span.busy sum in
    let kernel = traced.evaluate +. traced.choose +. traced.commit in
    List.iter
      (fun (name, v) -> Report.metric report name ~unit:"s" v)
      [
        ("dag.build_s", busy "dag.build");
        ("model.instance_s", busy "model.instance");
        ("model.levels_s", busy "model.levels");
        ("kernel.evaluate_s", traced.evaluate);
        ("kernel.choose_s", traced.choose);
        ("kernel.commit_s", traced.commit);
        ("core.ftsa_s", busy "core.ftsa");
        ("core.mc_ftsa_s", busy "core.mc_ftsa");
        ("core.self_s", busy "core.ftsa" +. busy "core.mc_ftsa" -. kernel);
        ("schedule.validate_s", busy "schedule.validate");
        ("schedule.serialize_s", busy "schedule.serialize");
        ("schedule.parse_s", busy "schedule.parse");
      ];
    Report.metric report "dag.edges" ~unit:"count" (float_of_int traced.edges);
    Report.metric report "kernel.candidate_evals" ~unit:"count"
      (float_of_int traced.evals);
    Report.metric report "schedule.bytes" ~unit:"B" (float_of_int traced.bytes);
    Report.metric report "trace.plan.overhead_share" ~unit:"share"
      (((w1 -. w0) /. (p1 -. p0)) -. 1.);
    let layer_spans =
      List.filter (fun s -> s.Span.name <> "plan.instance") spans
    in
    Report.metric report "trace.plan.unattributed_share" ~unit:"share"
      (Span.unattributed_share ~wall:(w0, w1) layer_spans);
    Report.spans report sum
  end;
  report
