(* Unit tests for the replica runtime: mutex table, condition variables, the
   interpreter's op stream and object state. *)

open Detmt_lang
open Detmt_runtime

let b = Alcotest.bool

(* --------------------------- Mutex_table --------------------------- *)

let test_mutex_basic () =
  let t = Mutex_table.create () in
  Alcotest.check b "initially free" true
    (Mutex_table.is_free_for t ~mutex:1 ~tid:7);
  Mutex_table.acquire t ~mutex:1 ~tid:7;
  Alcotest.check b "owner" true (Mutex_table.owner t ~mutex:1 = Some 7);
  Alcotest.check b "free for owner" true
    (Mutex_table.is_free_for t ~mutex:1 ~tid:7);
  Alcotest.check b "not free for other" false
    (Mutex_table.is_free_for t ~mutex:1 ~tid:8);
  Alcotest.check b "release frees" true (Mutex_table.release t ~mutex:1 ~tid:7)

let test_mutex_reentrant () =
  let t = Mutex_table.create () in
  Mutex_table.acquire t ~mutex:5 ~tid:1;
  Mutex_table.acquire t ~mutex:5 ~tid:1;
  Alcotest.(check int) "depth 2" 2 (Mutex_table.hold_count t ~mutex:5);
  Alcotest.check b "inner release keeps hold" false
    (Mutex_table.release t ~mutex:5 ~tid:1);
  Alcotest.check b "outer release frees" true
    (Mutex_table.release t ~mutex:5 ~tid:1)

let test_mutex_foreign_acquire_raises () =
  let t = Mutex_table.create () in
  Mutex_table.acquire t ~mutex:3 ~tid:1;
  Alcotest.check b "foreign acquire raises" true
    (try
       Mutex_table.acquire t ~mutex:3 ~tid:2;
       false
     with Invalid_argument _ -> true);
  Alcotest.check b "foreign release raises" true
    (try
       ignore (Mutex_table.release t ~mutex:3 ~tid:2);
       false
     with Invalid_argument _ -> true)

let test_mutex_release_all_restore () =
  let t = Mutex_table.create () in
  Mutex_table.acquire t ~mutex:9 ~tid:4;
  Mutex_table.acquire t ~mutex:9 ~tid:4;
  let count = Mutex_table.release_all t ~mutex:9 ~tid:4 in
  Alcotest.(check int) "saved depth" 2 count;
  Alcotest.check b "freed" true (Mutex_table.owner t ~mutex:9 = None);
  Mutex_table.restore t ~mutex:9 ~tid:4 ~count;
  Alcotest.(check int) "restored depth" 2 (Mutex_table.hold_count t ~mutex:9)

let test_mutex_held_by () =
  let t = Mutex_table.create () in
  Mutex_table.acquire t ~mutex:2 ~tid:1;
  Mutex_table.acquire t ~mutex:8 ~tid:1;
  Mutex_table.acquire t ~mutex:5 ~tid:2;
  Alcotest.(check (list int)) "held set sorted" [ 2; 8 ]
    (Mutex_table.held_by t ~tid:1);
  Alcotest.check b "holds_any" true (Mutex_table.holds_any t ~tid:2);
  Alcotest.check b "holds none" false (Mutex_table.holds_any t ~tid:3)

(* [holds_any] and [held_count] are maintained incrementally; [held_by]
   scans the whole table, so it is the oracle.  Illegal operations are
   skipped (their raising is covered above); reentrant acquisitions and
   wait/restore round trips are generated on purpose. *)
type mutex_op =
  | Acquire of int * int (* tid, mutex *)
  | Release of int * int
  | Release_all of int * int
  | Restore of int * int * int (* tid, mutex, count *)

let mutex_op_gen =
  let open QCheck.Gen in
  let tid = int_range 0 3 and mutex = int_range 0 4 in
  frequency
    [ (4, map2 (fun t m -> Acquire (t, m)) tid mutex);
      (3, map2 (fun t m -> Release (t, m)) tid mutex);
      (1, map2 (fun t m -> Release_all (t, m)) tid mutex);
      (1, map3 (fun t m c -> Restore (t, m, c)) tid mutex (int_range 1 3)) ]

let prop_mutex_held_count =
  QCheck.Test.make ~count:300 ~name:"mutex held count matches held_by"
    QCheck.(make Gen.(list_size (int_range 0 60) mutex_op_gen))
    (fun ops ->
      let t = Mutex_table.create () in
      let owns tid mutex = Mutex_table.owner t ~mutex = Some tid in
      let apply = function
        | Acquire (tid, mutex) ->
          if Mutex_table.is_free_for t ~mutex ~tid then
            Mutex_table.acquire t ~mutex ~tid
        | Release (tid, mutex) ->
          if owns tid mutex then ignore (Mutex_table.release t ~mutex ~tid)
        | Release_all (tid, mutex) ->
          if owns tid mutex then
            ignore (Mutex_table.release_all t ~mutex ~tid)
        | Restore (tid, mutex, count) ->
          if Mutex_table.owner t ~mutex = None then
            Mutex_table.restore t ~mutex ~tid ~count
      in
      let consistent () =
        List.for_all
          (fun tid ->
            let held = Mutex_table.held_by t ~tid in
            let n = Mutex_table.held_count t ~tid in
            Mutex_table.holds_any t ~tid = (held <> [])
            && n = List.length held
            && (n = 0) = (held = []))
          [ 0; 1; 2; 3 ]
      in
      List.for_all
        (fun op ->
          apply op;
          consistent ())
        ops)

(* ----------------------------- Condvar ----------------------------- *)

let test_condvar_fifo () =
  let cv = Condvar.create () in
  Condvar.park cv ~mutex:1 ~tid:10;
  Condvar.park cv ~mutex:1 ~tid:11;
  Condvar.park cv ~mutex:1 ~tid:12;
  Alcotest.check b "notify_one pops oldest" true
    (Condvar.notify_one cv ~mutex:1 = Some 10);
  Alcotest.(check (list int)) "notify_all in fifo order" [ 11; 12 ]
    (Condvar.notify_all cv ~mutex:1);
  Alcotest.check b "empty now" true (Condvar.notify_one cv ~mutex:1 = None)

let test_condvar_per_mutex () =
  let cv = Condvar.create () in
  Condvar.park cv ~mutex:1 ~tid:10;
  Condvar.park cv ~mutex:2 ~tid:20;
  Alcotest.(check (list int)) "mutex 1 waiters" [ 10 ]
    (Condvar.waiting cv ~mutex:1);
  Alcotest.check b "notify on other mutex" true
    (Condvar.notify_one cv ~mutex:2 = Some 20)

let test_condvar_double_park_rejected () =
  let cv = Condvar.create () in
  Condvar.park cv ~mutex:1 ~tid:5;
  Alcotest.check b "double park raises" true
    (try
       Condvar.park cv ~mutex:1 ~tid:5;
       false
     with Invalid_argument _ -> true)

let test_condvar_remove () =
  let cv = Condvar.create () in
  Condvar.park cv ~mutex:1 ~tid:5;
  Alcotest.check b "removed" true (Condvar.remove cv ~mutex:1 ~tid:5);
  Alcotest.check b "absent" false (Condvar.remove cv ~mutex:1 ~tid:5)

(* ------------------------------ Interp ----------------------------- *)

(* Drive the interpreter by hand, collecting the op stream. *)
let ops_of ?(args = [||]) cls meth =
  let obj = Object_state.create cls in
  let req =
    Request.make ~uid:0 ~client:0 ~client_req:0 ~meth ~args ~sent_at:0.0
  in
  let rec collect acc = function
    | Interp.Done -> List.rev acc
    | Interp.Yield (op, k) -> collect (op :: acc) (k ())
  in
  collect [] (Interp.start ~cls ~obj ~req ())

let simple_cls body =
  Builder.cls ~cname:"C" ~state_fields:[ "st" ]
    ~mutex_fields:[ ("f", 42) ]
    [ Builder.meth "m" ~params:3 body ]

let instrumented body =
  Detmt_transform.Transform.basic (simple_cls body)

let test_interp_lock_stream () =
  let open Builder in
  let cls = instrumented [ sync (arg 0) [ state_incr "st" 1 ] ] in
  let ops = ops_of ~args:[| Ast.Vmutex 17 |] cls "m" in
  match ops with
  | [ Op.Lock { syncid = 1; mutex = 17 };
      Op.State_update { field = "st"; delta = 1 };
      Op.Unlock { syncid = 1; mutex = 17 } ] ->
    ()
  | _ ->
    Alcotest.failf "unexpected op stream: %s"
      (String.concat "; " (List.map Op.show ops))

let test_interp_branches_on_args () =
  let open Builder in
  let cls =
    instrumented
      [ if_ (arg_bool 0) [ compute 1.0 ] [ compute 2.0 ] ]
  in
  let dur args =
    match ops_of ~args cls "m" with
    | [ Op.Compute { duration } ] -> duration
    | _ -> Alcotest.fail "expected one compute"
  in
  Alcotest.(check (float 1e-9)) "then branch" 1.0
    (dur [| Ast.Vbool true |]);
  Alcotest.(check (float 1e-9)) "else branch" 2.0
    (dur [| Ast.Vbool false |])

let test_interp_loop_count_from_arg () =
  let open Builder in
  let cls = instrumented [ for_arg 0 [ compute 1.0 ] ] in
  let ops = ops_of ~args:[| Ast.Vint 4 |] cls "m" in
  Alcotest.(check int) "four iterations" 4 (List.length ops)

let test_interp_field_resolution () =
  let open Builder in
  let cls = instrumented [ sync (field "f") [ state_incr "st" 1 ] ] in
  match ops_of ~args:[||] cls "m" with
  | Op.Lock { mutex = 42; _ } :: _ -> ()
  | ops ->
    Alcotest.failf "field mutex not resolved: %s"
      (String.concat "; " (List.map Op.show ops))

let test_interp_local_assignment () =
  let open Builder in
  let cls =
    instrumented
      [ assign "v" (marg 1); sync (local "v") [ state_incr "st" 1 ] ]
  in
  match ops_of ~args:[| Ast.Vbool false; Ast.Vmutex 23 |] cls "m" with
  | Op.Lock { mutex = 23; _ } :: _ -> ()
  | _ -> Alcotest.fail "local not resolved"

let test_interp_dynamic_call_fresh_frame () =
  (* A helper's local must not leak into (or read from) the caller frame. *)
  let open Builder in
  let cls =
    Builder.cls ~cname:"C" ~state_fields:[ "st" ]
      [ Builder.meth "m" ~params:1
          [ assign "v" (mconst 1); call "h"; sync (local "v") [ state_incr "st" 1 ] ];
        Builder.helper ~final:false "h" ~params:1 [ assign "v" (mconst 9) ];
      ]
  in
  let cls = Detmt_transform.Transform.basic cls in
  match ops_of ~args:[| Ast.Vint 0 |] cls "m" with
  | [ Op.Lock { mutex = 1; _ }; Op.State_update _; Op.Unlock _ ] -> ()
  | ops ->
    Alcotest.failf "caller frame polluted: %s"
      (String.concat "; " (List.map Op.show ops))

let test_interp_virtual_dispatch () =
  let open Builder in
  let cls =
    Builder.cls ~cname:"C" ~state_fields:[ "st" ]
      [ Builder.meth "m" ~params:1 [ virtual_call ~selector:0 [ "a"; "b" ] ];
        Builder.helper ~final:false "a" ~params:1 [ compute 1.0 ];
        Builder.helper ~final:false "b" ~params:1 [ compute 2.0 ];
      ]
  in
  let cls = Detmt_transform.Transform.basic cls in
  let dur k =
    match ops_of ~args:[| Ast.Vint k |] cls "m" with
    | [ Op.Compute { duration } ] -> duration
    | _ -> Alcotest.fail "expected one compute"
  in
  Alcotest.(check (float 1e-9)) "candidate 0" 1.0 (dur 0);
  Alcotest.(check (float 1e-9)) "candidate 1" 2.0 (dur 1)

let test_interp_guarded_wait () =
  let open Builder in
  let cls =
    instrumented [ sync this [ wait_until this ~field:"st" ~min:1 ] ]
  in
  let obj = Object_state.create (simple_cls []) in
  ignore obj;
  (* With st = 0, the stream must be lock; wait; then after the state is
     bumped externally, the re-check proceeds to unlock. *)
  let cls_obj = Object_state.create cls in
  let req =
    Request.make ~uid:0 ~client:0 ~client_req:0 ~meth:"m" ~args:[||]
      ~sent_at:0.0
  in
  (match Interp.start ~cls ~obj:cls_obj ~req () with
  | Interp.Yield (Op.Lock _, k) -> (
    match k () with
    | Interp.Yield (Op.Wait _, k2) -> (
      (* simulate the producer *)
      Object_state.update_state cls_obj "st" 1;
      match k2 () with
      | Interp.Yield (Op.Unlock _, k3) -> (
        match k3 () with
        | Interp.Done -> ()
        | _ -> Alcotest.fail "expected done")
      | _ -> Alcotest.fail "expected unlock after condition holds")
    | _ -> Alcotest.fail "expected wait while condition is false")
  | _ -> Alcotest.fail "expected lock")

let test_interp_rejects_raw_sync () =
  let open Builder in
  let cls = simple_cls [ sync this [ state_incr "st" 1 ] ] in
  Alcotest.check b "raw sync raises" true
    (try
       ignore (ops_of cls "m");
       false
     with Interp.Runtime_error _ -> true)

let test_interp_rejects_bad_arg () =
  let open Builder in
  let cls = instrumented [ sync (arg 2) [ state_incr "st" 1 ] ] in
  Alcotest.check b "missing argument raises" true
    (try
       ignore (ops_of ~args:[| Ast.Vmutex 1 |] cls "m");
       false
     with Interp.Runtime_error _ -> true)

let test_interp_rejects_helper_request () =
  let cls =
    Builder.cls ~cname:"C" ~state_fields:[]
      [ Builder.helper "h" [ Builder.compute 1.0 ] ]
  in
  let cls = Detmt_transform.Transform.basic cls in
  Alcotest.check b "non-exported method rejected" true
    (try
       ignore (ops_of cls "h");
       false
     with Interp.Runtime_error _ -> true)

let test_interp_dummy_is_noop () =
  let cls = instrumented [ Builder.compute 5.0 ] in
  let obj = Object_state.create cls in
  let req = Request.dummy ~uid:0 ~sent_at:0.0 in
  (match Interp.start ~cls ~obj ~req () with
  | Interp.Done -> ()
  | Interp.Yield _ -> Alcotest.fail "dummy must not execute")

(* --------------------------- Object_state -------------------------- *)

let test_object_state_fingerprint () =
  let cls = simple_cls [] in
  let a = Object_state.create cls and b' = Object_state.create cls in
  Alcotest.check b "fresh states equal" true
    (Object_state.fingerprint a = Object_state.fingerprint b');
  Object_state.update_state a "st" 3;
  Alcotest.check b "update changes fingerprint" false
    (Object_state.fingerprint a = Object_state.fingerprint b');
  Object_state.update_state b' "st" 3;
  Alcotest.check b "same updates, same fingerprint" true
    (Object_state.fingerprint a = Object_state.fingerprint b')

let test_object_state_mutable_fields () =
  let cls = simple_cls [] in
  let o = Object_state.create cls in
  Alcotest.(check int) "initial mutex field" 42
    (Object_state.mutex_field o "f");
  Object_state.set_mutex_field o "f" 7;
  Alcotest.(check int) "updated" 7 (Object_state.mutex_field o "f");
  Alcotest.check b "unknown field raises" true
    (try
       ignore (Object_state.mutex_field o "zz");
       false
     with Invalid_argument _ -> true)

let suite =
  [ ("mutex basic", `Quick, test_mutex_basic);
    ("mutex reentrant", `Quick, test_mutex_reentrant);
    ("mutex foreign ops raise", `Quick, test_mutex_foreign_acquire_raises);
    ("mutex release_all/restore", `Quick, test_mutex_release_all_restore);
    ("mutex held_by", `Quick, test_mutex_held_by);
    QCheck_alcotest.to_alcotest prop_mutex_held_count;
    ("condvar fifo", `Quick, test_condvar_fifo);
    ("condvar per mutex", `Quick, test_condvar_per_mutex);
    ("condvar double park", `Quick, test_condvar_double_park_rejected);
    ("condvar remove", `Quick, test_condvar_remove);
    ("interp lock stream", `Quick, test_interp_lock_stream);
    ("interp branches on args", `Quick, test_interp_branches_on_args);
    ("interp loop count from arg", `Quick, test_interp_loop_count_from_arg);
    ("interp field resolution", `Quick, test_interp_field_resolution);
    ("interp local assignment", `Quick, test_interp_local_assignment);
    ("interp call frames", `Quick, test_interp_dynamic_call_fresh_frame);
    ("interp virtual dispatch", `Quick, test_interp_virtual_dispatch);
    ("interp guarded wait", `Quick, test_interp_guarded_wait);
    ("interp rejects raw sync", `Quick, test_interp_rejects_raw_sync);
    ("interp rejects bad arg", `Quick, test_interp_rejects_bad_arg);
    ("interp rejects helper request", `Quick,
     test_interp_rejects_helper_request);
    ("interp dummy is noop", `Quick, test_interp_dummy_is_noop);
    ("object state fingerprint", `Quick, test_object_state_fingerprint);
    ("object state fields", `Quick, test_object_state_mutable_fields);
  ]

let () = Alcotest.run "runtime" [ ("runtime", suite) ]
