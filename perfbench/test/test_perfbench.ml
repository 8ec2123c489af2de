(* The benchmark's own arithmetic: span self time, the percentile sample
   rule, and determinism of the seeded inputs and arrival schedule. *)

open Perfbench

let close = Alcotest.float 1e-9

let span ?(parent = -1) id name start stop =
  { Span.id; parent; name; start; stop }

let test_union () =
  Alcotest.check close "empty" 0. (Span.union_length []);
  Alcotest.check close "disjoint" 3. (Span.union_length [ (0., 1.); (2., 4.) ]);
  Alcotest.check close "overlap counted once" 5.
    (Span.union_length [ (0., 3.); (1., 2.); (2., 5.) ]);
  Alcotest.check close "empty intervals ignored" 1.
    (Span.union_length [ (3., 3.); (5., 4.); (0., 1.) ])

let test_self_time () =
  let parent = span 0 "plan.instance" 0. 10. in
  let children =
    [
      span ~parent:0 1 "dag.build" 1. 3.;
      (* overlaps the first child: [2, 3] must not count twice *)
      span ~parent:0 2 "core.ftsa" 2. 5.;
      (* sticks out of the parent: only [8, 10] is inside *)
      span ~parent:0 3 "schedule.parse" 8. 12.;
    ]
  in
  Alcotest.check close "self = 10 - |[1,5] + [8,10]|" 4.
    (Span.self_time parent children);
  Alcotest.check close "leaf" 2. (Span.self_time (List.hd children) [])

let test_summarize () =
  let spans =
    [
      span 0 "par.round" 0. 4.;
      span ~parent:0 1 "sim.run" 0. 3.;
      span ~parent:0 2 "sim.run" 1. 4.;
      span 3 "par.round" 5. 6.;
    ]
  in
  let sum = Span.summarize spans in
  let round = List.assoc "par.round" sum and sim = List.assoc "sim.run" sum in
  Alcotest.(check int) "rounds" 2 round.count;
  Alcotest.check close "round busy" 5. round.busy;
  Alcotest.check close "round self: children on two domains cover [0,4]" 1.
    round.self;
  Alcotest.(check int) "items" 2 sim.count;
  Alcotest.check close "item busy" 6. sim.busy;
  Alcotest.check close "unattributed: [0,4] and [5,6] of [0,8]" 0.375
    (Span.unattributed_share ~wall:(0., 8.) (List.tl spans))

let test_with_span () =
  Span.set_enabled false;
  Alcotest.(check int) "off: value" 3 (Span.with_span "a.x" (fun () -> 3));
  Alcotest.(check int) "off: nothing kept" 0 (List.length (Span.collect ()));
  Span.set_enabled true;
  Span.with_span "a.outer" (fun () ->
      Span.with_span "b.inner" ignore;
      (try Span.with_span "b.raises" (fun () -> failwith "x")
       with Failure _ -> ()));
  Span.set_enabled false;
  let spans = Span.collect () in
  let find n = List.find (fun s -> s.Span.name = n) spans in
  let outer = find "a.outer" in
  Alcotest.(check int) "three spans" 3 (List.length spans);
  Alcotest.(check int) "outer is a root" (-1) outer.parent;
  Alcotest.(check int) "inner's parent" outer.id (find "b.inner").parent;
  Alcotest.(check int) "kept when raising" outer.id (find "b.raises").parent;
  Alcotest.(check string) "layer" "b" (Span.layer (find "b.inner"));
  Alcotest.(check int) "collect empties" 0 (List.length (Span.collect ()))

let test_percentiles () =
  let xs n = Array.init n (fun i -> float_of_int (n - i)) in
  Alcotest.(check (option (pair close int)))
    "p99 of 1000: ten beyond" (Some (990., 1000))
    (Pct.nearest_rank (xs 1000) 99.);
  Alcotest.(check (option (pair close int)))
    "p99 of 999 refused" None (Pct.nearest_rank (xs 999) 99.);
  Alcotest.(check (option (pair close int)))
    "p50 of 20" (Some (10., 20)) (Pct.nearest_rank (xs 20) 50.);
  Alcotest.(check (option (pair close int)))
    "p50 of 19 refused" None (Pct.nearest_rank (xs 19) 50.);
  Alcotest.(check int) "needed p99" 1000 (Pct.needed 99.);
  Alcotest.(check int) "needed p50" 20 (Pct.needed 50.);
  Alcotest.check close "median even" 2.5 (Pct.median [| 4.; 1.; 3.; 2. |]);
  let a = xs 30 in
  ignore (Pct.nearest_rank a 50.);
  Alcotest.check close "input untouched" 30. a.(0)

let test_arrivals () =
  let a = Inputs.arrivals ~seed:5 ~rate:200. ~count:4000 in
  Alcotest.(check bool) "same seed, same schedule" true
    (a = Inputs.arrivals ~seed:5 ~rate:200. ~count:4000);
  Alcotest.(check bool) "another seed, another schedule" false
    (a = Inputs.arrivals ~seed:6 ~rate:200. ~count:4000);
  Alcotest.(check bool) "increasing" true
    (Array.for_all2 ( < ) (Array.sub a 0 3999) (Array.sub a 1 3999));
  let mean_gap = a.(3999) /. 4000. in
  Alcotest.(check bool) "mean gap near 1/rate" true
    (Float.abs (mean_gap -. 0.005) < 0.0005)

let phases = [ ("light", 100., 400); ("heavy", 200., 400) ]

let test_serve_inputs () =
  let s = Inputs.serve Inputs.Sparse ~seed:3 ~phases in
  Alcotest.(check string) "same seed, same stream" (Inputs.digest s)
    (Inputs.digest (Inputs.serve Inputs.Sparse ~seed:3 ~phases));
  Alcotest.(check bool) "another seed, another stream" false
    (Inputs.digest s
    = Inputs.digest (Inputs.serve Inputs.Sparse ~seed:4 ~phases));
  let first_use = Array.make (Array.length s.payloads) max_int in
  let repeats = ref 0 and total = ref 0 in
  List.iter
    (fun (_, _, reqs) ->
      Array.iteri
        (fun i (r : Inputs.request) ->
          incr total;
          if r.repeat then begin
            incr repeats;
            Alcotest.(check bool) "repeat follows its first use" true
              (first_use.(r.payload) < i)
          end
          else begin
            Alcotest.(check int) "first uses are new" max_int
              first_use.(r.payload);
            first_use.(r.payload) <- i
          end)
        reqs;
      Array.fill first_use 0 (Array.length first_use) max_int)
    s.phases;
  let share = float_of_int !repeats /. float_of_int !total in
  (* One arrival in four, none among a phase's first 40 first uses. *)
  Alcotest.(check bool) "a quarter repeats" true (share > 0.2 && share <= 0.25)

let test_instance () =
  let edges shape =
    let i = Inputs.instance shape ~seed:9 ~n_tasks:200 ~m:4 in
    Ftsched_schedule.Serialize.instance_to_string i
  in
  Alcotest.(check string)
    "dense is seeded" (edges Inputs.Dense) (edges Inputs.Dense);
  Alcotest.(check bool)
    "shapes differ" false
    (edges Inputs.Dense = edges Inputs.Sparse);
  Alcotest.check_raises "unknown workload"
    (Invalid_argument "unknown workload nope") (fun () ->
      ignore (Inputs.shape_of_workload "nope"))

let () =
  Alcotest.run "perfbench"
    [
      ( "span",
        [
          Alcotest.test_case "union" `Quick test_union;
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "summarize" `Quick test_summarize;
          Alcotest.test_case "with_span" `Quick test_with_span;
        ] );
      ( "percentile",
        [ Alcotest.test_case "sample rule" `Quick test_percentiles ] );
      ( "inputs",
        [
          Alcotest.test_case "arrivals" `Quick test_arrivals;
          Alcotest.test_case "serve stream" `Quick test_serve_inputs;
          Alcotest.test_case "instances" `Quick test_instance;
        ] );
    ]
