(** Binary, reentrant mutexes (the Java monitor model of section 2).

    The table only tracks ownership; admission policy and queueing live in the
    scheduler.  Misuse (acquiring a held mutex, releasing a foreign one)
    raises — a scheduler granting an illegal acquisition is a bug and must
    fail loudly. *)

type t

val create : unit -> t

val owner : t -> mutex:int -> int option
(** Owning thread, if any. *)

val hold_count : t -> mutex:int -> int
(** Reentrancy depth; 0 when free. *)

val is_free_for : t -> mutex:int -> tid:int -> bool
(** Free, or already owned by [tid] (reentrant entry). *)

val acquire : t -> mutex:int -> tid:int -> unit
(** @raise Invalid_argument when the mutex is held by another thread. *)

val release : t -> mutex:int -> tid:int -> bool
(** Decrement the reentrancy count; returns [true] when the mutex became
    free.  @raise Invalid_argument when [tid] does not own the mutex. *)

val release_all : t -> mutex:int -> tid:int -> int
(** Full release for [wait]: drops the whole reentrancy count and returns it
    so it can be restored on re-acquisition.
    @raise Invalid_argument when [tid] does not own the mutex. *)

val restore : t -> mutex:int -> tid:int -> count:int -> unit
(** Re-acquisition after [wait]: restore the saved count.
    @raise Invalid_argument when the mutex is not free. *)

val holders : t -> (int * int) list
(** All currently held mutexes as [(mutex, owner)] pairs, sorted — deadlock
    diagnostics. *)

val held_by : t -> tid:int -> int list
(** Mutexes currently owned by the thread, sorted. *)

val held_count : t -> tid:int -> int
(** Number of distinct mutexes the thread owns (reentrant entries count
    once); maintained on every ownership change, O(1). *)

val holds_any : t -> tid:int -> bool
(** [held_count > 0], in one lookup. *)
