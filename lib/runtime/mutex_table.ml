type entry = { mutable owner : int; mutable count : int }

type t = {
  entries : (int, entry) Hashtbl.t; (* mutex -> owner and reentrancy depth *)
  held : (int, int) Hashtbl.t;
      (* tid -> number of mutexes it owns; only threads owning at least one,
         so [holds_any] is one lookup instead of a scan of every mutex *)
}

let create () = { entries = Hashtbl.create 64; held = Hashtbl.create 64 }

let entry t mutex = Hashtbl.find_opt t.entries mutex

let owner t ~mutex =
  match entry t mutex with
  | Some e when e.count > 0 -> Some e.owner
  | Some _ | None -> None

let hold_count t ~mutex =
  match entry t mutex with Some e -> e.count | None -> 0

let held_count t ~tid =
  match Hashtbl.find t.held tid with n -> n | exception Not_found -> 0

(* The two ownership transitions: a mutex becomes owned by [tid] (count
   0 -> positive) or stops being owned by it (positive -> 0). *)
let took t tid = Hashtbl.replace t.held tid (held_count t ~tid + 1)

let dropped t tid =
  let n = held_count t ~tid in
  if n <= 1 then Hashtbl.remove t.held tid
  else Hashtbl.replace t.held tid (n - 1)

(* Allocation-free: schedulers probe this once per queued request per
   decision pass. *)
let is_free_for t ~mutex ~tid =
  match Hashtbl.find t.entries mutex with
  | e -> e.count = 0 || e.owner = tid
  | exception Not_found -> true

let acquire t ~mutex ~tid =
  match entry t mutex with
  | Some e when e.count > 0 ->
    if e.owner = tid then e.count <- e.count + 1
    else
      invalid_arg
        (Printf.sprintf
           "Mutex_table.acquire: mutex %d granted to t%d but held by t%d"
           mutex tid e.owner)
  | Some e ->
    e.owner <- tid;
    e.count <- 1;
    took t tid
  | None ->
    Hashtbl.add t.entries mutex { owner = tid; count = 1 };
    took t tid

let owned_entry t ~mutex ~tid ~what =
  match entry t mutex with
  | Some e when e.count > 0 && e.owner = tid -> e
  | Some _ | None ->
    invalid_arg
      (Printf.sprintf "Mutex_table.%s: t%d does not own mutex %d" what tid
         mutex)

let release t ~mutex ~tid =
  let e = owned_entry t ~mutex ~tid ~what:"release" in
  e.count <- e.count - 1;
  if e.count = 0 then dropped t tid;
  e.count = 0

let release_all t ~mutex ~tid =
  let e = owned_entry t ~mutex ~tid ~what:"release_all" in
  let count = e.count in
  e.count <- 0;
  dropped t tid;
  count

let restore t ~mutex ~tid ~count =
  if count <= 0 then invalid_arg "Mutex_table.restore: non-positive count";
  match entry t mutex with
  | Some e when e.count > 0 ->
    invalid_arg
      (Printf.sprintf "Mutex_table.restore: mutex %d is held by t%d" mutex
         e.owner)
  | Some e ->
    e.owner <- tid;
    e.count <- count;
    took t tid
  | None ->
    Hashtbl.add t.entries mutex { owner = tid; count };
    took t tid

let holders t =
  Hashtbl.fold
    (fun mutex e acc -> if e.count > 0 then (mutex, e.owner) :: acc else acc)
    t.entries []
  |> List.sort compare

let held_by t ~tid =
  Hashtbl.fold
    (fun mutex e acc -> if e.count > 0 && e.owner = tid then mutex :: acc
      else acc)
    t.entries []
  |> List.sort compare

let holds_any t ~tid = Hashtbl.mem t.held tid
