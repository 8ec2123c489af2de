(** Differential fuzzing of the scheduling pipeline.

    The paper's correctness claims are structural invariants — every
    task replicated on [ε+1] distinct processors (Prop. 4.1), per-edge
    one-to-one MC selections (Prop. 4.3), schedules that survive any
    [ε] crashes (Theorem 4.1) — and the repo now has four independent
    executors of those semantics ({!Ftsched_schedule.Validate}, the
    structural re-timing of {!Ftsched_sim.Crash_exec}, the event-driven
    {!Ftsched_sim.Event_sim}, and {!Ftsched_schedule.Serialize}'s
    round-trip).  Independent implementations drift silently; this
    harness makes the drift loud.

    Per seed it generates a small random instance, runs every
    registered scheduler policy, and cross-checks four oracle families:

    - {b structural}: [Validate.check] plus [M* <= M];
    - {b survivability}: [survives_all_subsets] for all-to-all plans
      (Theorem 4.1); exhaustive reroute-replay completion for selected
      plans (the strict-policy gap of Prop. 4.3 is documented and
      expected, so the strict policy is {e not} a survivability
      oracle);
    - {b executor agreement}: [Crash_exec] (strict) and
      [Event_sim.run_crash] must agree on the fault-free scenario and
      every single-crash scenario, and the fault-free replay must not
      exceed [M*];
    - {b round-trip}: [schedule_of_string ∘ schedule_to_string] is the
      identity (compared on the re-serialized bytes);
    - {b selection} (selected plans only): the schedule's pairs are
      one-to-one and admissible, and [Edge_select]'s greedy/bottleneck
      selectors on the reconstructed bipartite graph are one-to-one
      with [max_weight(bottleneck) = bottleneck_value <=
      max_weight(greedy)].

    A fifth family runs per trace seed rather than per scheduler:
    {b stream-lost}, the never-lost invariant of
    {!Ftsched_stream.Stream.check_report} over a chaotic streaming
    trace (crashes, outages, message loss) — no submitted job may end
    without a typed fate.

    A sixth family, {b parser-safety}, also runs per seed: serialized
    instance and schedule documents are truncated, bit-flipped,
    spliced with huge declared counts and shorn of lines, and every
    mutant must either parse or be rejected with the parser's typed
    exceptions ([Failure] / [Invalid_argument]) — never crash the
    process or escape with anything else.  This pins the
    {!Ftsched_schedule.Serialize} hardening caps in place for the
    network boundary ({!Ftsched_serve}), which feeds the same parser
    with adversarial bytes.

    On a violation the counterexample is shrunk — drop DAG
    sources/sinks, halve/decrement [ε], remove processors, ddmin over
    edge subsets — to a 1-minimal witness (no single remaining shrink
    step still fails), serialized under [_fuzz/], and reported with a
    replay command.

    Everything is a pure function of the seed, so campaigns parallelize
    over seeds with {!Ftsched_par.Par} and are bit-identical for any
    job count. *)

type case = {
  instance : Ftsched_model.Instance.t;
  eps : int;
  sched_seed : int;  (** seed handed to the scheduler (tie-breaking) *)
}

type scheduler = {
  name : string;
  run :
    seed:int -> Ftsched_model.Instance.t -> eps:int ->
    Ftsched_schedule.Schedule.t;
}

val schedulers : scheduler list
(** The full registry: every policy instantiation of the scheduling
    kernel — ftsa, mc-greedy, mc-bottleneck, mc-redundant, ca-ftsa,
    r-ftsa (fixed heterogeneous rates), ftsa-domains (deterministic
    [min m (ε+2)]-way partition), ftbar, heft, peft, cpop.  The
    fault-free baselines ignore [eps] and produce [ε = 0] schedules,
    which still exercise every oracle. *)

type oracle =
  | Crash  (** the scheduler itself raised *)
  | Structural
  | Survivability
  | Executor_agreement
  | Round_trip
  | Selection
  | Stream_lost
      (** the fifth family: {!Ftsched_stream.Stream.check_report} on a
          seeded streaming trace — a submitted job left without a typed
          fate, inconsistent accounting, or a deadline-violating fate *)
  | Parser_safety
      (** the sixth family: an adversarial mutant of a serialized
          document escaped {!Ftsched_schedule.Serialize} with something
          other than [Failure] / [Invalid_argument] *)

val oracle_name : oracle -> string
val oracle_of_name : string -> oracle option

type violation = { oracle : oracle; detail : string }

val gen_case : seed:int -> case
(** Deterministic random instance: 2–5 processors, 3–14 tasks drawn
    from five DAG families (layered, Erdős–Rényi, fork–join, out-tree,
    chain), random platform/cost matrices, [ε] in [0 .. min 2 (m-1)]. *)

val check : scheduler -> case -> violation list
(** Run the scheduler on the case and evaluate every applicable oracle.
    Empty list = clean.  Exceptions anywhere in the pipeline become
    {!Crash} / per-oracle violations, never escape. *)

val stream_config : Ftsched_stream.Stream.config
(** The small chaotic fixture the stream oracle fuzzes: 4 processors,
    Poisson crashes and message loss, tight admission capacity. *)

val check_stream : seed:int -> violation list
(** Run one streaming trace on {!stream_config} and evaluate the
    never-lost oracle.  Exceptions become {!Stream_lost} violations,
    never escape.  Pure function of the seed. *)

val check_parser : seed:int -> violation list
(** Serialize the seed's random instance (and its FTSA schedule), run a
    deterministic battery of adversarial mutants — truncations, bit
    flips, huge spliced counts, deleted lines — through
    {!Ftsched_schedule.Serialize}, and report every mutant that escaped
    with anything but the typed [Failure] / [Invalid_argument]
    rejections (plus a pristine document that failed to parse).  Pure
    function of the seed. *)

val shrink :
  ?max_evals:int -> scheduler -> case -> oracle -> case * int * int
(** [shrink sched case oracle] minimizes a failing case while the same
    oracle keeps failing.  Returns [(minimal, accepted_steps,
    evaluations)].  Deterministic; bounded by [max_evals] (default
    2000) oracle evaluations. *)

type counterexample = {
  seed : int;
  scheduler : string;
  violation : violation;  (** re-evaluated on the shrunk case *)
  original : case;
  shrunk : case;
  shrink_steps : int;
  evaluations : int;
}

val run_seed : ?schedulers:scheduler list -> int -> counterexample list
(** [run_seed seed] generates, checks every scheduler, shrinks every
    violation.  Pure function of the seed (and the scheduler list). *)

type report = {
  seeds_requested : int;
  seeds_run : int;  (** < requested only when [should_stop] fired *)
  schedulers_run : int;
  counterexamples : (counterexample * string option) list;
      (** with the witness path when saving was enabled *)
  stream_violations : (int * violation list * string option) list;
      (** per trace seed that violated the stream oracle: the
          violations and the witness path when saving was enabled *)
  parser_violations : (int * violation list * string option) list;
      (** per seed that violated the parser-safety oracle *)
}

val campaign :
  ?schedulers:scheduler list ->
  ?jobs:int ->
  ?should_stop:(unit -> bool) ->
  ?dir:string ->
  ?save:bool ->
  seeds:int ->
  unit ->
  report
(** Fuzz seeds [0 .. seeds-1], parallel over seeds ([jobs] worker
    domains, default {!Ftsched_par.Par.default_jobs}); results are
    bit-identical for any job count.  [should_stop] (the [--time-budget]
    hook) is polled between seed chunks: the run then stops early with
    [seeds_run < seeds_requested] — the only way output depends on
    anything but the seeds.  Witnesses are written under [dir] (default
    ["_fuzz"], created on demand) unless [save = false]; writing happens
    after the parallel phase, in seed order. *)

(** {2 Witness files} *)

val write_case :
  path:string -> scheduler:string -> oracle:oracle -> case -> unit
(** Versioned header (scheduler, eps, scheduler seed, oracle) followed
    by the {!Ftsched_schedule.Serialize} instance document. *)

val read_case : path:string -> string * oracle option * case
(** [(scheduler_name, oracle, case)].  Raises [Failure] on a malformed
    file. *)

type tournament_witness = {
  policy_a : string;
  policy_b : string;
  metric : string;  (** tournament metric name, e.g. ["guaranteed"] *)
  ratio : float;  (** the makespan ratio the tournament reported *)
  case : case;
}
(** An adversarial instance found by the instance-space tournament
    ({!Ftsched_tournament}): the ordered policy pair it separates, the
    metric and ratio it was scored under, and the instance itself as a
    regular fuzz {!case}. *)

val write_tournament_case : path:string -> tournament_witness -> unit
(** ["ftsched-tournament v1"] magic, headers (policies, metric, ratio
    in [%h] hex-float so the round trip is bit-exact, eps, scheduler
    seed), then the {!Ftsched_schedule.Serialize} instance document. *)

val read_tournament_case : path:string -> tournament_witness
(** Raises [Failure] on a malformed file. *)

val write_stream_case : path:string -> seed:int -> violation list -> unit
(** ["ftsched-stream v1"] magic, a [seed] header, then one ["# ..."]
    comment line per violation; [ftsched-parser v1] has the same layout.
    The readers return the seed and raise [Failure] on a malformed file. *)

val read_stream_case : path:string -> int
val write_parser_case : path:string -> seed:int -> violation list -> unit
val read_parser_case : path:string -> int

val replay :
  ?schedulers:scheduler list ->
  string ->
  (string * violation list, string) result
(** [replay path] re-runs every oracle on a saved witness:
    [Ok (scheduler, violations)] ([violations = []] means the bug no
    longer reproduces), or [Error] for an unreadable file / unknown
    scheduler.  Dispatches on the file magic: ["ftsched-fuzz v1"]
    witnesses replay the saved instance through the saved scheduler;
    ["ftsched-stream v1"] witnesses re-run the saved trace seed through
    the stream oracle; ["ftsched-parser v1"] witnesses re-run the saved
    seed through the parser-safety oracle; ["ftsched-tournament v1"]
    witnesses run the saved instance through the {e full oracle
    battery} of {e both} saved policies (violation details prefixed
    with the policy name) — a found adversarial instance doubles as a
    fuzz seed. *)

val replay_corpus :
  ?schedulers:scheduler list ->
  string ->
  (string * (string * violation list, string) result) list
(** [replay_corpus dir] replays every [*.case] file under [dir] (sorted
    by name, non-recursive): corpus regression testing for previously
    shrunk witnesses.  Each entry pairs the file path with its {!replay}
    result. *)

val replay_command : path:string -> string
(** The CLI invocation reported next to a saved witness. *)

val pp_counterexample : Format.formatter -> counterexample -> unit
