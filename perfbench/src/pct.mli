(** Percentiles under the benchmark's sample rule: a percentile is only
    reported when at least {!min_beyond} samples lie above it. *)

val min_beyond : int
(** 10. *)

val nearest_rank : float array -> float -> (float * int) option
(** [nearest_rank xs p] is [Some (value, n)] — the nearest-rank [p]-th
    percentile ([0 < p < 100]) of the [n] samples — or [None] when fewer
    than {!min_beyond} samples rank above it.  [xs] is not modified. *)

val needed : float -> int
(** Smallest sample count for which {!nearest_rank} reports [p]. *)

val median : float array -> float
(** Plain median (mean of the two middle values for even counts); [nan]
    on an empty array.  For quantities that are not reported as
    percentiles, e.g. the median of a few set-up times. *)
