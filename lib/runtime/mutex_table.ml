type entry = { mutable owner : int; mutable count : int }

type t = (int, entry) Hashtbl.t

let create () : t = Hashtbl.create 64

let entry t mutex = Hashtbl.find_opt t mutex

let owner t ~mutex =
  match entry t mutex with
  | Some e when e.count > 0 -> Some e.owner
  | Some _ | None -> None

let hold_count t ~mutex =
  match entry t mutex with Some e -> e.count | None -> 0

(* Allocation-free: schedulers probe this once per queued request per
   decision pass. *)
let is_free_for t ~mutex ~tid =
  match Hashtbl.find t mutex with
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
    e.count <- 1
  | None -> Hashtbl.add t mutex { owner = tid; count = 1 }

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
  e.count = 0

let release_all t ~mutex ~tid =
  let e = owned_entry t ~mutex ~tid ~what:"release_all" in
  let count = e.count in
  e.count <- 0;
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
    e.count <- count
  | None -> Hashtbl.add t mutex { owner = tid; count }

let holders t =
  Hashtbl.fold
    (fun mutex e acc -> if e.count > 0 then (mutex, e.owner) :: acc else acc)
    t []
  |> List.sort compare

let held_by t ~tid =
  Hashtbl.fold
    (fun mutex e acc -> if e.count > 0 && e.owner = tid then mutex :: acc
      else acc)
    t []
  |> List.sort compare

let holds_any t ~tid = held_by t ~tid <> []
