(** In-memory spans recorded by the benchmark around each call into a
    library layer.

    Recording is off by default; {!with_span} then costs one boolean test.
    When on, every span is kept in a per-domain buffer until {!collect}
    gathers them at the end of the run — nothing is written while the
    workload is being timed. *)

type t = {
  id : int;
  parent : int;  (** id of the enclosing span, [-1] at the root *)
  name : string;  (** ["<layer>.<what>"], e.g. ["sim.run"] *)
  start : float;  (** seconds, [Unix.gettimeofday] clock *)
  stop : float;
}

val set_enabled : bool -> unit
(** Call before any span is opened; not thread-safe against open spans. *)

val enabled : unit -> bool

val with_span : ?parent:int -> string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f], recording a span around it when enabled.
    The parent defaults to the innermost span open in the calling domain;
    pass [~parent] for work handed to another domain.  The span is
    recorded even when [f] raises. *)

val current : unit -> int
(** Id of the innermost open span of the calling domain, [-1] if none. *)

val collect : unit -> t list
(** Every span recorded so far in any domain, sorted by start time, and
    empties the buffers. *)

val duration : t -> float

val layer : t -> string
(** The part of the name before the first ['.']. *)

val union_length : (float * float) list -> float
(** Total length covered by a set of [(start, stop)] intervals, counting
    overlaps once. *)

val self_time : t -> t list -> float
(** [self_time span children] is the span's duration minus the part of
    its interval covered by the children (clipped to the span, overlaps
    between children counted once). *)

type summary = { busy : float; self : float; count : int }

val summarize : t list -> (string * summary) list
(** Per span name: summed duration, summed self time (children found by
    parent id) and number of spans, sorted by name. *)

val busy : (string * summary) list -> string -> float
(** Summed duration of the named spans in a {!summarize} result; [0.]
    when none was recorded. *)

val unattributed_share : wall:float * float -> t list -> float
(** Share of the [(start, stop)] wall interval that no span covers. *)
