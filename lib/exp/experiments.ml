module Table = Ftsched_util.Table

type params = { full : bool; graphs : int option; seed : int option }
type panel = { slug : string; caption : string; table : Table.t }
type result = { panels : panel list; failed : string list }

type entry = {
  id : string;
  title : string;
  slugs : string list;
  run : params -> result;
}

let spec p =
  let s = if p.full then Workload.paper else Workload.quick in
  match p.graphs with Some n -> Workload.with_graphs_per_point s n | None -> s

(* [panels] pairs each slug with its caption; [run] returns the tables in
   the same order, plus the ids of any failed checks. *)
let checked id title panels run =
  let run p =
    let tables, failed = run p in
    let panels =
      List.map2 (fun (slug, caption) table -> { slug; caption; table })
        panels tables
    in
    { panels; failed }
  in
  { id; title; slugs = List.map fst panels; run }

let entry id title panels run = checked id title panels (fun p -> (run p, []))

let one ?slug id title caption run =
  entry id title
    [ (Option.value slug ~default:id, caption) ]
    (fun p -> [ run p ])

let figure n ~eps ~crash_counts =
  let panel suffix caption =
    (Printf.sprintf "fig%d_%s" n suffix, Printf.sprintf caption n)
  in
  entry (Printf.sprintf "fig%d" n)
    (Printf.sprintf "Figure %d (eps=%d, crashes %s)" n eps
       (String.concat "/" (List.map string_of_int crash_counts)))
    [
      panel "bounds" "Figure %d(a): normalized latency bounds";
      panel "crash" "Figure %d(b): normalized latency under crashes";
      panel "overhead" "Figure %d(c): average overhead (%%)";
      panel "mc_defeats"
        "Figure %d, diagnostic (not in paper): MC-FTSA strict-policy defeat \
         rate";
    ]
    (fun p ->
      let f =
        Figures.figure ~spec:(spec p) ?master_seed:p.seed ~eps ~crash_counts ()
      in
      Figures.[ f.bounds; f.crash; f.overhead; f.mc_defeats ])

let all =
  [
    figure 1 ~eps:1 ~crash_counts:[ 0; 1 ];
    figure 2 ~eps:2 ~crash_counts:[ 0; 1; 2 ];
    figure 3 ~eps:5 ~crash_counts:[ 0; 2; 5 ];
    entry "fig4" "Figure 4 (5 processors, eps=2, FTSA only)"
      [
        ("fig4_latency", "Figure 4(a): normalized latency");
        ("fig4_overhead", "Figure 4(b): average overhead (%)");
      ]
      (fun p ->
        let latency, overhead =
          Figures.figure4 ~spec:(spec p) ?master_seed:p.seed ()
        in
        [ latency; overhead ]);
    one "table1" "Table 1: running times (m=50, eps=5)"
      "wall-clock seconds per scheduler run; sizes grow to 5000 at paper \
       scale"
      (fun p ->
        Figures.table1 ?seed:p.seed
          ?sizes:(if p.full then Some Figures.paper_sizes else None)
          ());
    checked "claims" "Self-check: the paper's qualitative claims as assertions"
      [ ("claims", "one row per claim of EXPERIMENTS.md, re-checked") ]
      (fun p ->
        let verdicts = Claims.verify ~spec:(spec p) ?master_seed:p.seed () in
        ( [ Claims.to_table verdicts ],
          List.filter_map
            (fun v -> if v.Claims.holds then None else Some v.Claims.id)
            verdicts ));
    one "contention"
      "Ablation (paper §7 future work): latency under communication contention"
      "failure-free replay through the event simulator; the paper \
       conjectures MC-FTSA wins once links contend"
      (fun p ->
        Figures.contention_ablation ~spec:(spec p) ?master_seed:p.seed ~eps:2
          ~ports:[ 1; 4 ] ());
    one "redundancy"
      "Ablation: redundant MC-FTSA (senders per input, eps=2, g=1.0)"
      "strict-policy defeat rate vs message budget; senders=1 is the \
       paper's MC-FTSA, senders=eps+1 restores FTSA's fan-in"
      (fun p ->
        Figures.redundancy_ablation ~spec:(spec p) ?master_seed:p.seed ~eps:2
          ());
    one ~slug:"procs_sweep" "procs"
      "Ablation: platform-size sweep (eps=2, g=1.0)"
      "the curve behind the paper's Figure-4 observation: on small \
       platforms the replication cost can no longer hide"
      (fun p ->
        Figures.procs_sweep ~spec:(spec p) ?master_seed:p.seed ~eps:2
          ~procs:[ 5; 8; 12; 16; 20; 30 ] ());
    one "rftsa"
      "Ablation (paper §7 future work): reliability-aware R-FTSA (eps=2)"
      "latency slack alpha vs mission reliability when every second \
       processor is 20x more failure-prone"
      (fun p ->
        Figures.rftsa_ablation ~spec:(spec p) ?master_seed:p.seed ~eps:2 ());
    one "reliability"
      "Ablation (paper §7 future work): schedule reliability, p_fail=0.1"
      "probability the application completes when every processor fails \
       independently"
      (fun p ->
        Figures.reliability_ablation ~spec:(spec p) ?master_seed:p.seed
          ~p_fail:0.1 ());
    entry "recovery"
      "Ablation A5: online failure detection and recovery (eps=2, g=1.0)"
      [
        ( "recovery_campaign",
          "A5(a): exponential fault-injection campaign — defeat rates and \
           recovered latency per failure intensity and detection latency" );
        ( "recovery_exact_eps",
          "A5(b): exactly-eps failures (Finding 1 regime; recovery must \
           reach defeat rate 0)" );
      ]
      (fun p ->
        let r =
          Figures.recovery_ablation ~spec:(spec p) ?master_seed:p.seed ~eps:2
            ()
        in
        Figures.[ r.campaign; r.exact_eps ]);
    one "linkloss"
      "Ablation A6: link failures and retransmission (eps=2, g=1.0)"
      "no processor dies; every inter-processor message is lost with the \
       row's probability — FTSA's (eps+1)^2 messaging vs MC-FTSA's \
       one-to-one plan, retransmission off/on, plus MC-FTSA under recovery"
      (fun p ->
        Figures.link_loss_ablation ~spec:(spec p) ?master_seed:p.seed ~eps:2
          ());
    one "adversary" "Adversarial timed worst-case search (eps=2, g=1.0)"
      "certified-or-empirical worst over death instants vs the untimed \
       exhaustive worst; one FTSA and one MC-FTSA (strict) schedule per row"
      (fun p ->
        Figures.adversary_table ~spec:(spec p) ?master_seed:p.seed ~eps:2 ());
    one "stream" "Ablation A7: online streaming under chaos"
      "arrival rate x crash rate; seeded stream traces with shadow recovery \
       plans vs static replication only"
      (fun p ->
        let seeds_per_point =
          match p.graphs with
          | Some n -> Some n
          | None -> if p.full then Some 30 else None
        in
        Figures.stream_ablation ?master_seed:p.seed ?seeds_per_point ());
    one ~slug:"tournament_matrix" "tournament"
      "Ablation A8: pairwise-dominance matrix of the adversarial tournament"
      "cell (A, B): the best makespan ratio M_A / M_B the instance-space \
       annealer found"
      (fun p ->
        let pairs, iters =
          if p.full then (Some 30, Some 400) else (None, None)
        in
        Figures.tournament_matrix ?master_seed:p.seed ?pairs ?iters ());
  ]

let find id = List.find_opt (fun e -> e.id = id) all
