(** The serving executor: one job queue drained by N worker loops.

    Batch serving ({!Serve.run_calls}) and the socket listener
    ({!Listener}) both run their calls through this core, so queueing,
    retry, backoff and drain exist once.  An attempt that fails with a
    {e transient} fault ({!Fault.is_transient}) while the job has retry
    budget left is requeued with an absolute not-before time,
    [backoff_s * 2^tries] ahead.  It never sleeps in the worker that
    ran it, so one flaky call cannot hold up the jobs queued behind it.
    An idle worker sleeps until something wakes it (a submit, {!close}
    or {!abort}) or, while jobs wait out a backoff, until the earliest
    not-before time is due.

    [attempt] and [finish] must not raise: {!Serve.run_call} and the
    compile cache already return every failure as a {!Fault.t}. *)

open Glaf_runtime

type 'a job = {
  payload : 'a;
  mutable tries : int;  (** completed attempts *)
  mutable not_before : float;  (** absolute earliest next attempt *)
  mutable last_fault : Fault.t option;
}

type 'a t = {
  mu : Mutex.t;
  retries : int;
  backoff_s : float;
  ready : 'a job Queue.t;
  mutable delayed : 'a job list;  (** waiting out a backoff *)
  mutable active : int;  (** attempts running now *)
  mutable closed : bool;  (** no more submits; workers exit once idle *)
  mutable aborted : bool;  (** queue dropped: in-flight faults are final *)
  cv : Condition.t;  (** idle workers with no backoff to wait out *)
  (* The stdlib has no timed condition wait, so a worker waiting out a
     backoff blocks in [select] on [wake_r] instead.  A wake-up writes
     one byte per registered sleeper and bumps [wake_gen]; each sleeper
     it counted reads exactly one byte back, so no stale byte survives. *)
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  mutable sleepers : int;
  mutable wake_gen : int;
}

(* Idle-wakeup gauge: how many times a worker went to sleep with only
   backoff timers outstanding.  The sleep targets the earliest
   not-before time exactly, so this stays O(retries) per batch rather
   than O(backoff / poll-interval); test_serve_concurrent pins it. *)
let c_idle_wakeups = Atomic.make 0
let idle_wakeups () = Atomic.get c_idle_wakeups
let reset_idle_wakeups () = Atomic.set c_idle_wakeups 0

let create ?(retries = 0) ?(backoff_s = 0.05) () =
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  { mu = Mutex.create (); retries; backoff_s; ready = Queue.create ();
    delayed = []; active = 0; closed = false; aborted = false;
    cv = Condition.create (); wake_r; wake_w; sleepers = 0; wake_gen = 0 }

(* under [t.mu]: wake every timed sleeper and one idle worker, or
   every idle worker when [all] *)
let wake ~all t =
  if all then Condition.broadcast t.cv else Condition.signal t.cv;
  if t.sleepers > 0 then begin
    ignore (Unix.write t.wake_w (Bytes.make t.sleepers '!') 0 t.sleepers);
    t.sleepers <- 0;
    t.wake_gen <- t.wake_gen + 1
  end

(* under [t.mu]: ready jobs plus jobs waiting out a backoff *)
let queued t = Queue.length t.ready + List.length t.delayed

(** Jobs admitted and not yet attempted or retried. *)
let pending t = Mutex.protect t.mu (fun () -> queued t)

(** Queue [payload] unless the executor is closed or [limit] jobs are
    already pending; [Error pending] reports the refusal.  The check
    and the push are one step, so the queue never outgrows [limit]. *)
let submit ?(limit = max_int) t payload =
  Mutex.protect t.mu (fun () ->
      let n = queued t in
      if t.closed || t.aborted || n >= limit then Error n
      else begin
        Queue.push { payload; tries = 0; not_before = 0.; last_fault = None } t.ready;
        wake ~all:false t;
        Ok ()
      end)

(** Refuse further submits; workers finish every queued job (retries
    included) and then return. *)
let close t = Mutex.protect t.mu (fun () -> t.closed <- true; wake ~all:true t)

(** Drop every queued job and return them with their last fault
    ([None]: never attempted).  Attempts in flight still finish, and a
    transient fault they hit is final. *)
let abort t =
  Mutex.protect t.mu (fun () ->
      t.aborted <- true;
      let dropped = List.of_seq (Queue.to_seq t.ready) @ List.rev t.delayed in
      Queue.clear t.ready;
      t.delayed <- [];
      wake ~all:true t;
      List.map (fun j -> (j.payload, j.last_fault)) dropped)

(* Entered under [t.mu], returns without it: sleep until woken or
   until the earliest backoff is due.  Only the worker that requeues a
   job needs to cover its timer: it comes back here itself, so every
   delayed job has a worker awake, working, or due to wake in time. *)
let idle t =
  match t.delayed with
  | [] ->
    Condition.wait t.cv t.mu;
    Mutex.unlock t.mu
  | l ->
    Atomic.incr c_idle_wakeups;
    let due = List.fold_left (fun a j -> Float.min a j.not_before) infinity l in
    let gen = t.wake_gen in
    t.sleepers <- t.sleepers + 1;
    Mutex.unlock t.mu;
    (try ignore (Unix.select [ t.wake_r ] [] [] (Float.max 0.0005 (due -. Clock.now_s ())))
     with Unix.Unix_error (EINTR, _, _) -> ());
    Mutex.lock t.mu;
    if t.wake_gen = gen then t.sleepers <- t.sleepers - 1
    else ignore (Unix.read t.wake_r (Bytes.create 1) 0 1);
    Mutex.unlock t.mu

let rec work t ~attempt ~finish =
  Mutex.lock t.mu;
  if t.delayed <> [] then begin
    let now = Clock.now_s () in
    let due, later = List.partition (fun j -> j.not_before <= now) t.delayed in
    t.delayed <- later;
    List.iter (fun j -> Queue.push j t.ready) due
  end;
  match Queue.take_opt t.ready with
  | Some j ->
    t.active <- t.active + 1;
    Mutex.unlock t.mu;
    let r = attempt j.payload in
    Mutex.lock t.mu;
    t.active <- t.active - 1;
    let requeued =
      match r with
      | Error f when Fault.is_transient f && j.tries < t.retries && not t.aborted ->
        j.last_fault <- Some f;
        j.not_before <- Clock.now_s () +. (t.backoff_s *. (2.0 ** float_of_int j.tries));
        j.tries <- j.tries + 1;
        t.delayed <- j :: t.delayed;
        true
      | _ -> false
    in
    Mutex.unlock t.mu;
    if not requeued then finish j.payload r;
    work t ~attempt ~finish
  | None when t.closed && t.delayed = [] && t.active = 0 ->
    (* drained: wake the other workers so they see it too *)
    wake ~all:true t;
    Mutex.unlock t.mu
  | None ->
    idle t;
    work t ~attempt ~finish

(** Run [workers] worker loops (at least one; the caller's domain is
    one of them) until the executor is closed and drained, then
    release its wake pipe.  Each loop takes a job, calls [attempt] on
    it outside every lock, requeues transient faults within the retry
    budget and hands every final result to [finish]. *)
let run t ~workers ~attempt ~finish =
  let helpers =
    Array.init (max 0 (workers - 1)) (fun _ ->
        Domain.spawn (fun () -> work t ~attempt ~finish))
  in
  work t ~attempt ~finish;
  Array.iter Domain.join helpers;
  Unix.close t.wake_r;
  Unix.close t.wake_w
