(** plan-large: the offline pipeline on large instances, sequentially —
    generate, cost matrix, levels, FTSA and MC-FTSA (ε = 2, m = 32), then
    validate, serialize, parse and re-serialize each schedule, on
    v = 5000 (dense) or 50000 (sparse) tasks.  The instance count is set
    by [seconds] alone (at least two); the median of the per-instance
    rates is reported as [plan.tasks_per_s]. *)

val run : Inputs.shape -> seed:int -> seconds:float -> trace:bool -> Report.t
