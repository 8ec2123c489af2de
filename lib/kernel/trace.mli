(** Optional per-step decision trace of the kernel driver.

    When a [t] is threaded through {!Driver.run} (or any scheduler
    facade's [?trace] argument), the driver records one {!step} per
    scheduling decision — the popped task, every equation-(1) candidate
    evaluation, the committed replicas and any selected communication
    edges — plus per-phase wall-clock counters.  The sink is passive: it
    never changes the schedule, only observes it.

    Consumed by [ftsched schedule --trace out.jsonl] (one JSON object per
    step) and [--stats] (aggregated {!Ftsched_schedule.Metrics.step_stats}),
    and by the differential-testing harness in [test/test_kernel.ml]. *)

type eval = {
  proc : int;
  finish_opt : float;  (** equation-(1) finish estimate *)
  finish_pess : float;  (** equation-(3) finish estimate *)
}

type replica = { proc : int; start : float; finish : float }

type step = {
  step : int;  (** 0-based decision index *)
  task : int;
  priority : float;  (** priority/urgency key at pop time; [nan] if none *)
  evals : eval array;  (** candidate evaluations, in evaluation order *)
  chosen : replica array;  (** committed replicas, in replica order *)
  edges : (int * (int * int) list) list;
      (** per incoming DAG edge: selected (src_replica, dst_replica)
          pairs — non-empty only for selected-communication policies *)
}

type t

val create : unit -> t

val algorithm : t -> string
(** Name of the policy that produced the trace ("" until a run starts). *)

val steps : t -> step list
(** Recorded steps, in scheduling order. *)

val stats : t -> Ftsched_schedule.Metrics.step_stats
(** Aggregate counters of the traced run. *)

val input_work : t -> int
(** Σ in-degree × m over {!Driver.prepare_inputs} calls: the e·m term of
    FTSA's O(e·m²) bound, a pure function of instance and seed. *)

val save_jsonl : t -> path:string -> unit
(** One JSON object per step, in scheduling order, followed by a final
    summary object with the aggregate counters. *)

(** {2 Driver-side interface}

    Called by {!Driver}; user code only reads traces. *)

val start : t -> algorithm:string -> unit
val record : t -> step -> unit
val add_evals : t -> int -> unit
val add_input_work : t -> int -> unit
val add_phase : t -> [ `Evaluate | `Choose | `Commit ] -> float -> unit
val finish : t -> gap:Proc_state.gap_stats -> unit
