(* The pre-refactor grant path that {!Detmt_sched.Candidate_index}
   replaced, kept behind the same signature as the differential oracle of
   test_candidate_index: candidates in a hash table, every query folds and
   sorts. *)

type 'a t = (int, 'a) Hashtbl.t

let create () : 'a t = Hashtbl.create 64

let clear = Hashtbl.reset

let cardinal = Hashtbl.length

let is_empty t = Hashtbl.length t = 0

let mem = Hashtbl.mem

let add t ~key v = Hashtbl.replace t key v

let remove = Hashtbl.remove

let find t key = Hashtbl.find_opt t key

let sorted t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let min t = match sorted t with [] -> None | kv :: _ -> Some kv

let find_first t ~f = List.find_opt (fun (k, v) -> f k v) (sorted t)

let iter t ~f = List.iter (fun (k, v) -> f k v) (sorted t)

let fold t ~init ~f =
  List.fold_left (fun acc (k, v) -> f k v acc) init (sorted t)

let to_list = sorted

let keys t = List.map fst (sorted t)
