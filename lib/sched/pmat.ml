(* PMAT — predicted MAT, the extension sketched in section 4.3.

   "Instead of only using one active primary thread, we aim at a queue of
   active threads that are in principle equal.  A thread t only gets a lock
   when all threads preceding it in the queue are already predicted and none
   of them conflicts with the lock requested by t."

   The queue is the arrival order — the substrate's admission index.  A
   pending lock request of thread t on mutex m is granted when:
   - m is free (or t already owns it — handled by the replica), and
   - every thread before t in the queue is predicted, and its future lock
     set (from the bookkeeping module) does not contain m.

   Pending requests are re-examined exactly at the paper's wake-up events:
   a conflicting mutex is released, a thread is removed from the list, or a
   preceding thread becomes predicted (lockInfo / ignore / loopExit).  One
   re-examination is a single ordered pass over the queue that carries the
   union of the predecessors' future sets forward and stops after the first
   unpredicted thread (DESIGN.md, "pMAT's grant pass").

   The paper leaves open "how the algorithm should proceed when a thread
   calls wait or does a nested invocation".  Our resolution (see DESIGN.md):
   a thread suspended in [wait] leaves the queue — otherwise the thread that
   should notify it could be blocked behind it, a guaranteed deadlock — and
   re-enters at the tail on its (deterministically ordered) notification; a
   thread suspended in a nested invocation keeps its place, which is
   conservative and deadlock-free because its reply always arrives.  Both
   rules only ever delay grants relative to an oracle, never reorder
   per-mutex acquisitions nondeterministically. *)

open Detmt_runtime
module Audit = Detmt_obs.Audit

(* Generation-stamped mutex marks: a mutex is marked when its stamp equals
   the current generation, so clearing the set for a fresh pass is one
   increment.  Dense ids index an array grown on demand; ids beyond
   [dense_limit] (object monitors sit at 1_000_000) keep their stamps in a
   side table.  After warm-up, marking and probing allocate nothing. *)
module Marks = struct
  type t = {
    mutable gen : int;
    mutable dense : int array;
    sparse : (int, int) Hashtbl.t;
  }

  let dense_limit = 1 lsl 16

  let create () =
    { gen = 1; dense = Array.make 64 0; sparse = Hashtbl.create 8 }

  let clear t = t.gen <- t.gen + 1

  let add t m =
    if m >= 0 && m < dense_limit then begin
      let n = Array.length t.dense in
      if m >= n then begin
        let grown = Array.make (min dense_limit (max (m + 1) (2 * n))) 0 in
        Array.blit t.dense 0 grown 0 n;
        t.dense <- grown
      end;
      t.dense.(m) <- t.gen
    end
    else Hashtbl.replace t.sparse m t.gen

  let mem t m =
    if m >= 0 && m < dense_limit then
      m < Array.length t.dense && t.dense.(m) = t.gen
    else
      match Hashtbl.find t.sparse m with
      | g -> g = t.gen
      | exception Not_found -> false
end

type t = {
  sub : Substrate.t;
  marks : Marks.t; (* future lock sets of the predecessors passed so far *)
  mark : int -> unit; (* [Marks.add marks], allocated once per policy *)
}

(* Is the pending request of [th] grantable given the predecessors whose
   future sets are marked? *)
let grantable t (th : Substrate.thread) =
  match th.pending with
  | None | Some Substrate.Resume -> false
  | Some (Substrate.Lock mutex | Substrate.Reacquire mutex) ->
    (Substrate.actions t.sub).mutex_free_for ~tid:th.tid ~mutex
    && not (Marks.mem t.marks mutex)

(* One step of the pass; [true] stops it.  A thread is checked before its
   own future set is marked (only its predecessors gate it), so the first
   unpredicted thread is still a candidate itself — but its unknown future
   conflicts with every mutex, so nothing behind it can be granted. *)
let visit t th =
  grantable t th || not (Substrate.iter_future t.sub ~tid:th.tid ~f:t.mark)

(* One ordered pass over the queue: the oldest grantable thread, if any.
   The pass mutates nothing but the marks, so a stop at an unpredicted
   thread is told apart from a grant by re-checking the stopping thread. *)
let find_grant t =
  Marks.clear t.marks;
  match Substrate.first t.sub ~f:(visit t) with
  | Some th when grantable t th -> Some th
  | Some _ | None -> None

let grant t (th : Substrate.thread) =
  (if Substrate.observing t.sub then
     let action, mutex =
       match th.pending with
       | Some (Substrate.Lock mutex) -> (Audit.Grant_lock, mutex)
       | Some (Substrate.Reacquire mutex) -> (Audit.Grant_reacquire, mutex)
       | Some Substrate.Resume | None -> assert false
     in
     Substrate.incr t.sub "grants";
     Substrate.audit t.sub ~tid:th.tid ~action ~mutex
       ~rule:Audit.Predicted_no_conflict
       ~candidates:(Substrate.tids t.sub ~f:(fun u -> u.seq < th.seq))
       ());
  Substrate.perform t.sub th

(* Grant the oldest grantable request until none is left.  Granting can
   cascade (the resumed thread may unlock, announce, terminate, ...) and
   re-enter [rescan] from inside [Substrate.perform], so every grant
   happens after its pass has ended and the next pass restarts from the
   head of the queue. *)
let rec rescan t =
  match find_grant t with
  | Some th ->
    grant t th;
    rescan t
  | None -> ()

let on_request t tid =
  ignore (Substrate.admit t.sub ~tid);
  (Substrate.actions t.sub).start_thread tid

let on_lock t tid ~syncid:_ ~mutex =
  (Substrate.thread t.sub tid).pending <- Some (Substrate.Lock mutex);
  rescan t;
  (* If the request is still pending, explain why it was deferred: either
     the mutex is genuinely held, or an unpredicted / conflicting queue
     predecessor gates it (the crossover cost the paper's section 4.3
     analyses). *)
  if Substrate.observing t.sub then
    match Substrate.find_thread t.sub tid with
    | Some th when th.pending <> None ->
      Substrate.incr t.sub "deferrals";
      Substrate.audit t.sub ~tid ~action:Audit.Defer ~mutex
        ~rule:
          (if not ((Substrate.actions t.sub).mutex_free_for ~tid ~mutex) then
             Audit.Mutex_held
           else Audit.Predecessor_unpredicted)
        ~candidates:
          (Substrate.tids t.sub ~f:(fun u ->
               u.tid <> tid && not (Substrate.predicted t.sub ~tid:u.tid)))
        ()
    | _ -> ()

let on_unlock t _tid ~syncid:_ ~mutex:_ ~freed = if freed then rescan t

let on_wait t tid ~mutex:_ =
  (* Leave the queue (the bookkeeping table survives); the monitor was
     released by the wait. *)
  Substrate.remove t.sub ~tid;
  rescan t

let on_wakeup t tid ~mutex =
  (* Re-enter at the tail, pending the monitor re-acquisition.  The position
     is deterministic: notifications are ordered by the deterministic
     execution. *)
  (Substrate.enqueue t.sub ~tid).pending <- Some (Substrate.Reacquire mutex);
  rescan t

let on_nested_reply t tid =
  (* The thread kept its queue position; it resumes freely (only lock
     acquisitions are gated). *)
  (Substrate.actions t.sub).resume_nested tid

let on_terminate t tid =
  Substrate.retire t.sub ~tid;
  rescan t

let policy sub : Sched_iface.sched =
  let marks = Marks.create () in
  let t = { sub; marks; mark = Marks.add marks } in
  let base =
    Sched_iface.no_op_sched ~name:(Substrate.name sub)
      ~on_request:(on_request t) ~on_lock:(on_lock t) ~on_wakeup:(on_wakeup t)
      ~on_nested_reply:(on_nested_reply t)
  in
  { base with
    on_unlock =
      (fun tid ~syncid ~mutex ~freed -> on_unlock t tid ~syncid ~mutex ~freed);
    on_wait = (fun tid ~mutex -> on_wait t tid ~mutex);
    on_terminate = on_terminate t;
    on_acquired =
      (fun tid ~syncid ~mutex ->
        Substrate.bk_acquired sub ~tid ~syncid ~mutex;
        rescan t);
    on_lockinfo =
      (fun tid ~syncid ~mutex ->
        Substrate.bk_lockinfo sub ~tid ~syncid ~mutex;
        rescan t);
    on_ignore =
      (fun tid ~syncid ->
        Substrate.bk_ignore sub ~tid ~syncid;
        rescan t);
    on_loop_enter = (fun tid ~loopid -> Substrate.bk_loop_enter sub ~tid ~loopid);
    on_loop_exit =
      (fun tid ~loopid ->
        Substrate.bk_loop_exit sub ~tid ~loopid;
        rescan t) }

module Base : Decision.S = struct
  let name = "pmat"

  let needs_prediction = true

  let policy = policy
end
