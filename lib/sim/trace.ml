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
  | View_change of { sender : int }
  | Ws_commit of { tid : int; writes : int }
  | Ws_abort of { tid : int; conflicts : int }
      (* [conflicts = 0]: aborted on an unsafe op (wait/notify/nested) before
         reaching the commit barrier; [> 0]: validation failure at commit *)

type t = {
  mutable events : (float * event) list; (* reverse order; only if [retain] *)
  retain : bool;
  mutable hash : int64;
}

let create ?(retain = true) () = { events = []; retain; hash = 0L }

(* FNV-1a style folding over a small integer encoding of the event. *)
let fnv_prime = 0x100000001B3L

let mix h x =
  Int64.mul (Int64.logxor h (Int64.of_int x)) fnv_prime

let hash_string h s =
  let acc = ref h in
  String.iter (fun c -> acc := mix !acc (Char.code c)) s;
  !acc

let hash_event h = function
  | Lock_requested { tid; syncid; mutex } ->
    mix (mix (mix (mix h 11) tid) syncid) mutex
  | Lock_granted { tid; syncid; mutex } ->
    mix (mix (mix (mix h 1) tid) syncid) mutex
  | Unlocked { tid; syncid; mutex } ->
    mix (mix (mix (mix h 2) tid) syncid) mutex
  | Wait_begin { tid; mutex } -> mix (mix (mix h 3) tid) mutex
  | Wait_end { tid; mutex } -> mix (mix (mix h 4) tid) mutex
  | Notify { tid; mutex; all } ->
    mix (mix (mix (mix h 5) tid) mutex) (Bool.to_int all)
  | Nested_begin { tid; service } -> mix (mix (mix h 6) tid) service
  | Nested_end { tid; service } -> mix (mix (mix h 7) tid) service
  | Thread_start { tid; method_name } ->
    hash_string (mix (mix h 8) tid) method_name
  | Thread_end { tid } -> mix (mix h 9) tid
  | Control_delivered { sender; grant_seq; mutex; tid } ->
    mix (mix (mix (mix (mix h 10) sender) grant_seq) mutex) tid
  | View_change { sender } -> mix (mix h 12) sender
  | Ws_commit { tid; writes } -> mix (mix (mix h 13) tid) writes
  | Ws_abort { tid; conflicts } -> mix (mix (mix h 14) tid) conflicts

let record_at t ~time e =
  if t.retain then t.events <- (time, e) :: t.events;
  t.hash <- hash_event t.hash e

let record t e = record_at t ~time:0.0 e

let events t = List.rev_map snd t.events

let timed_events t = List.rev t.events

let fingerprint t = t.hash

let pp_event ppf = function
  | Lock_requested { tid; syncid; mutex } ->
    Format.fprintf ppf "want    t%d sync%d m%d" tid syncid mutex
  | Lock_granted { tid; syncid; mutex } ->
    Format.fprintf ppf "lock    t%d sync%d m%d" tid syncid mutex
  | Unlocked { tid; syncid; mutex } ->
    Format.fprintf ppf "unlock  t%d sync%d m%d" tid syncid mutex
  | Wait_begin { tid; mutex } -> Format.fprintf ppf "wait    t%d m%d" tid mutex
  | Wait_end { tid; mutex } -> Format.fprintf ppf "awake   t%d m%d" tid mutex
  | Notify { tid; mutex; all } ->
    Format.fprintf ppf "notify%s t%d m%d" (if all then "A" else " ") tid mutex
  | Nested_begin { tid; service } ->
    Format.fprintf ppf "nest>   t%d s%d" tid service
  | Nested_end { tid; service } ->
    Format.fprintf ppf "nest<   t%d s%d" tid service
  | Thread_start { tid; method_name } ->
    Format.fprintf ppf "start   t%d %s" tid method_name
  | Thread_end { tid } -> Format.fprintf ppf "end     t%d" tid
  | Control_delivered { sender; grant_seq; mutex; tid } ->
    Format.fprintf ppf "ctrl    t%d m%d grant#%d from r%d" tid mutex grant_seq
      sender
  | View_change { sender } -> Format.fprintf ppf "view    from r%d" sender
  | Ws_commit { tid; writes } ->
    Format.fprintf ppf "wscmt   t%d w%d" tid writes
  | Ws_abort { tid; conflicts } ->
    Format.fprintf ppf "wsabrt  t%d c%d" tid conflicts

let pp ppf t =
  List.iter (fun e -> Format.fprintf ppf "%a@." pp_event e) (events t)
