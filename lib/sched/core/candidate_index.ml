(* Deterministic sorted candidate index.

   Every decision module needs some flavour of "the least key satisfying a
   predicate": the oldest runnable secondary (MAT), the lowest-tid waiter
   (freefall), the tid-ordered drain of enforced decisions (LSA promotion).
   The original modules answered it with [Hashtbl.fold … |> List.sort] on
   every decision — O(n log n) per grant, and nondeterministic fold order
   hidden only by the sort.  This index keeps the candidates in a balanced
   map keyed by an integer (arrival sequence or tid), so insert/remove/min
   are O(log n) and iteration is ascending by construction.

   The replaced scan-based implementation lives on in
   test/candidate_index_reference.ml behind the same signature: the unit
   suite checks the two agree operation-for-operation. *)

module M = Map.Make (Int)

type 'a t = { mutable map : 'a M.t; mutable count : int }

let create () = { map = M.empty; count = 0 }

let clear t =
  t.map <- M.empty;
  t.count <- 0

let cardinal t = t.count

let is_empty t = t.count = 0

let mem t key = M.mem key t.map

let add t ~key v =
  if not (M.mem key t.map) then t.count <- t.count + 1;
  t.map <- M.add key v t.map

let remove t key =
  if M.mem key t.map then begin
    t.map <- M.remove key t.map;
    t.count <- t.count - 1
  end

let find t key = M.find_opt key t.map

let min t = M.min_binding_opt t.map

(* Least key whose binding satisfies [f]; ascending scan with early exit. *)
let find_first t ~f =
  let result = ref None in
  (try
     M.iter
       (fun k v ->
         if f k v then begin
           result := Some (k, v);
           raise Exit
         end)
       t.map
   with Exit -> ());
  !result

let iter t ~f = M.iter f t.map

let fold t ~init ~f = M.fold f t.map init

let to_list t = M.bindings t.map

let keys t = List.map fst (M.bindings t.map)
