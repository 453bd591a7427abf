(** Append-only trace of scheduling-relevant events.

    Each replica records the sequence of lock grants, releases, waits and
    notifications it performed.  Two replicas executed deterministically must
    produce byte-identical traces; {!fingerprint} folds a trace into a single
    64-bit hash used by the consistency checker.

    The hash is always computed.  The timed event list, which grows with the
    run, is kept only by a retaining trace — the timeline renderer and the
    tests that inspect individual events ask for one. *)

type event =
  | Lock_requested of { tid : int; syncid : int; mutex : int }
  | Lock_granted of { tid : int; syncid : int; mutex : int }
  | Unlocked of { tid : int; syncid : int; mutex : int }
  | Wait_begin of { tid : int; mutex : int }
  | Wait_end of { tid : int; mutex : int }
  | Notify of { tid : int; mutex : int; all : bool }
  | Nested_begin of { tid : int; service : int }
  | Nested_end of { tid : int; service : int }
  | Thread_start of { tid : int; method_name : string }
  | Thread_end of { tid : int }
  | Control_delivered of { sender : int; grant_seq : int; mutex : int; tid : int }
      (** A scheduler control message (an LSA grant) arrived in total order.
          Typed, not a formatted string, so the fingerprint depends only on
          the decision itself. *)
  | View_change of { sender : int }
  | Ws_commit of { tid : int; writes : int }
      (** A speculative workspace merged into the committed object state at
          its slot-order barrier ([writes] = write-set size). *)
  | Ws_abort of { tid : int; conflicts : int }
      (** A speculation was discarded: [conflicts = 0] for an abort on an
          unsafe operation (wait/notify/nested), [> 0] for a validation
          failure at the commit barrier.  The thread re-executes directly. *)

type t

val create : ?retain:bool -> unit -> t
(** [retain] (default [true]): keep the timed event list as well as the
    hash. *)

val record : t -> event -> unit
(** Record with timestamp 0 (unit tests). *)

val record_at : t -> time:float -> event -> unit
(** Record with the current virtual time; the timestamp feeds the timeline
    renderer and is excluded from {!fingerprint}. *)

val events : t -> event list
(** Events in recording order; empty unless the trace retains them. *)

val timed_events : t -> (float * event) list
(** Events with their virtual timestamps, in recording order; empty unless
    the trace retains them. *)

val fingerprint : t -> int64
(** Order-sensitive hash of all recorded events. *)

val pp_event : Format.formatter -> event -> unit

val pp : Format.formatter -> t -> unit
