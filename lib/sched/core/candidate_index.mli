(** Deterministic sorted candidate index: an incrementally maintained
    ordered set of candidates keyed by an integer (arrival sequence or tid).
    Replaces the per-decision [Hashtbl.fold … |> List.sort] scans of the
    original decision modules — insert/remove/min are O(log n), iteration is
    ascending by key.  All operations are deterministic functions of the
    insertion history. *)

type 'a t

val create : unit -> 'a t

val clear : 'a t -> unit

val cardinal : 'a t -> int
(** O(1). *)

val is_empty : 'a t -> bool

val mem : 'a t -> int -> bool

val add : 'a t -> key:int -> 'a -> unit
(** Insert or replace. *)

val remove : 'a t -> int -> unit

val find : 'a t -> int -> 'a option

val min : 'a t -> (int * 'a) option
(** Least-key binding, O(log n). *)

val find_first : 'a t -> f:(int -> 'a -> bool) -> (int * 'a) option
(** Least-key binding satisfying [f]; ascending scan, early exit. *)

val iter : 'a t -> f:(int -> 'a -> unit) -> unit
(** Ascending key order. *)

val fold : 'a t -> init:'b -> f:(int -> 'a -> 'b -> 'b) -> 'b
(** Ascending key order. *)

val to_list : 'a t -> (int * 'a) list
(** Ascending key order. *)

val keys : 'a t -> int list
