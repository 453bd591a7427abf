(** The engine's event queue: a hierarchical timing wheel with a far-future
    overflow heap.

    Keys are [(time, seq)] pairs compared lexicographically; the event engine
    allocates monotonically increasing sequence numbers, so two events
    scheduled for the same virtual time are delivered in scheduling order.
    That stability is what makes the whole simulation deterministic, and the
    wheel preserves it exactly: ticks only decide bucket {e placement}, each
    bucket is sorted on the exact key before it is drained, so the pop
    stream is bit-identical to a binary heap's (the replaced heap is kept
    in the test suite as the differential-fuzz oracle).

    Payloads are non-negative [int]s — the engine's pooled event-slot ids —
    so the steady-state push/pop cycle allocates nothing.

    Contract (both guaranteed by the engine, both checked): times are
    non-negative, and a push never predates the time of the last pop. *)

type t

val create : ?granularity_ms:float -> unit -> t
(** [granularity_ms] (default [0.5]) is the width of one wheel tick.  It
    trades bucket-sort width against cursor-scan length and never affects
    ordering — only placement. *)

val is_empty : t -> bool

val length : t -> int

val push : t -> time:float -> seq:int -> int -> unit
(** [push q ~time ~seq v] inserts payload [v >= 0] with key [(time, seq)].
    Raises [Invalid_argument] on a negative payload, a negative time, or a
    time before the last popped entry's. *)

val pop : t -> (float * int * int) option
(** Remove and return the minimum element, or [None] when empty.  Allocates
    the result; the engine's hot path uses {!pop_raw} instead. *)

val peek : t -> (float * int * int) option
(** Return the minimum element without removing it. *)

(** {1 Allocation-free hot path} *)

val pop_raw : t -> int
(** Remove the minimum element and return its payload, or [-1] when empty.
    The popped key is readable through {!popped_time} / {!popped_seq} until
    the next pop. *)

val popped_time : t -> float

val popped_seq : t -> int

val peek_time : t -> float
(** Time of the minimum element, or [infinity] when empty. *)

val clear : t -> unit
