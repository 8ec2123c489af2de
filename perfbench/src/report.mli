(** What one phase process reports: a single JSON line on stdout, merged
    into the benchmark's result by [run.py]. *)

type t

val create : phase:string -> t

val metric : t -> string -> unit:string -> float -> unit
(** Records a metric; a non-finite value is recorded as [0]. *)

val percentile :
  t -> string -> samples:float array -> p:float -> unit
(** Records the nearest-rank [p]-th percentile of [samples] (ms) and a
    note with its sample count.  Raises [Failure] — the run is refused —
    when the sample rule of {!Pct.nearest_rank} forbids the value. *)

val note : t -> ('a, unit, string, unit) format4 -> 'a
(** A human-readable line printed by [run.py] before the result. *)

val attempt : t -> ok:bool -> unit
(** Counts one operation, failed unless [ok]. *)

val check : t -> bool -> ('a, unit, string, unit) format4 -> 'a
(** [check t cond fmt] marks the outputs incorrect, with a note, unless
    [cond]. *)

val spans : t -> (string * Span.summary) list -> unit
(** One note per span name: count, busy time and self time. *)

val set_setup : t -> float array -> unit
(** The phase's repeated set-up times; the median is reported. *)

val mark_peak_heap : t -> unit
(** Reports the heap high-water mark as it stands now, instead of at
    the end of the process. *)

val print : t -> unit
(** The JSON line, with the process's heap high-water mark
    ([Gc.top_heap_words]) in MiB, at the end or as marked. *)
