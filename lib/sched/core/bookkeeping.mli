(** The bookkeeping module of the two-module scheduler architecture
    (section 4.3).

    "The bookkeeping module contains all static and thread-wise information,
    reflecting the knowledge about the threads' current and future lock
    acquisitions. ... The bookkeeping module also offers an interface to the
    decision module the scheduler implementation may use to find out about
    conflicting locks."

    Per thread, a copy of the static syncid table is kept and updated from the
    injected calls: [lockInfo] marks an entry announced, [ignore] discards it,
    an acquisition outside any active loop marks it passed, and loop markers
    maintain the active/exited scope sets.  A thread is {e predicted} when
    every entry is resolved and no changing scope is active or still ahead —
    then its exact future lock set is known. *)

type t

val create : summary:Detmt_analysis.Predict.class_summary option -> unit -> t
(** Without a summary every query degrades to the pessimistic answer, so
    prediction-aware schedulers behave like their pessimistic bases. *)

val register : t -> tid:int -> meth:string -> unit
(** Attach a fresh copy of the start method's static table to the thread.
    Methods without a (non-fallback) summary get pessimistic defaults. *)

val release : t -> tid:int -> unit
(** Forget a terminated thread. *)

(* Runtime notifications, wired from the scheduler callbacks. *)

val on_lockinfo : t -> tid:int -> syncid:int -> mutex:int -> unit

val on_ignore : t -> tid:int -> syncid:int -> unit

val on_acquired : t -> tid:int -> syncid:int -> mutex:int -> unit

val on_loop_enter : t -> tid:int -> loopid:int -> unit

val on_loop_exit : t -> tid:int -> loopid:int -> unit

(* Queries for the decision module. *)

val predicted : t -> tid:int -> bool
(** All entries of the thread's table are marked (announced, passed or
    ignored) and no changing scope is active or ahead. *)

val future_may_lock : t -> tid:int -> mutex:int -> bool
(** Whether the thread may still request the mutex.  [true] whenever the
    thread is not predicted (unknown future conflicts with everything). *)

val no_future_locks : t -> tid:int -> bool
(** The thread is predicted and its future lock set is empty — it "has
    requested and released all of its locks and will never request one
    again" (the MAT weakness fixed in Figure 2). *)

val iter_future : t -> tid:int -> f:(int -> unit) -> bool
(** When the thread is predicted, apply [f] to each mutex of its exact
    future lock set (ascending, duplicate-free) and return [true]; otherwise
    return [false] without calling [f].  Allocates nothing itself, and costs
    O(n) only in the size of the set, never in the number of table
    entries. *)

val uses_condvars : t -> tid:int -> bool
(** Whether the thread's start method may execute a condition-variable
    [wait]/[notify] (from the static summary).  [true] when unknown.
    Decision modules that let predicted threads run outside their normal
    serialisation discipline (pPDS independence) must exclude such threads:
    a wait re-enters the grant machinery at a timing-dependent point, and a
    notify wakes third parties at one. *)
