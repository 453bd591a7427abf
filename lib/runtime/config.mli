(** Replica runtime configuration.

    The overheads model the cost of the application-level scheduler itself:
    every intercepted lock/unlock pays [lock_overhead_ms]; every injected
    announcement pays [bookkeeping_overhead_ms] — the knob behind the
    section 5 question "at which point performance decreases again due to
    runtime overhead" (experiment E8). *)

type t = {
  cores : int;  (** simulated CPU cores per replica *)
  lock_overhead_ms : float;  (** cost of each scheduler.lock/unlock call *)
  bookkeeping_overhead_ms : float;
      (** cost of each lockInfo/ignore/loop-marker call *)
  reply_build_ms : float;
      (** the final computation: building the reply message (section 4.1) *)
  pds_batch : int;  (** PDS: worker slots per scheduling round *)
  pds_dummy_timeout_ms : float;
      (** PDS: delay before dummy messages fill an incomplete batch *)
  trace : bool;
      (** retain the timed scheduling-event list ({!Detmt_sim.Trace.events},
          read by the timeline renderer and by tests).  The trace hash
          ({!Detmt_sim.Trace.fingerprint}) is computed either way, so this
          flag never changes a fingerprint; it only decides whether a run
          keeps per-event history that grows with its length.  Default
          [false]. *)
  ws_precise : bool;
      (** workspace merge policy ([Precise_error]): [false] resolves
          write-write overlaps lowest-slot-wins silently, [true] additionally
          reports each conflicting field through the flight recorder *)
}

val default : t

val validate : t -> unit
(** @raise Invalid_argument on nonsensical values. *)

val pp : Format.formatter -> t -> unit
