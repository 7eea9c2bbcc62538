(** Batched kernel serving.

    The paper's workflow compiles a GPI action script once and then
    runs the generated kernel many times (parameter sweeps, per-mesh
    invocations).  [oglaf run] pays the whole
    script -> analysis -> codegen -> parse pipeline on every
    invocation; this module performs that pipeline {e once}
    ({!compile}) and then serves a batch of kernel calls from it
    ({!run_calls}), with a fresh interpreter state per call so
    invocations cannot leak grid state into each other.

    The calls file format is one call per line:
    {[
      # comment
      saxpy(1000, 2.5)
      dot(1000)
    ]}
    Arguments are integer or real literals.  Blank lines and lines
    starting with [#] are skipped.

    Fault tolerance (PR 3): {!run_call} returns
    [(outcome, Fault.t) result] instead of raising — one bad call
    (runtime error, per-call deadline, injected or real worker-pool
    failure) is classified by the {!Fault} taxonomy and the batch
    keeps serving.  {!run_calls} serves through the shared
    {!Executor} and collects a per-batch fault summary (counts by
    class, first few messages); it supports abort-after-K
    ([max_errors]) and requeue-with-backoff for transient faults
    ([retries]). *)

open Glaf_fortran
open Glaf_runtime

(** One kernel invocation from a calls file. *)
type call = {
  cl_line : int;  (** 1-based line in the calls file *)
  cl_name : string;  (** function of the script to invoke *)
  cl_args : Ast.expr list;
}

exception Calls_error of int * string

let calls_error ln fmt =
  Format.kasprintf (fun s -> raise (Calls_error (ln, s))) fmt

let is_ident_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_'

let parse_arg ln pos s =
  let s = String.trim s in
  if s = "" then calls_error ln "empty argument slot (position %d)" pos
  else
    match int_of_string_opt s with
    | Some n -> Ast.Int_lit n
    | None -> (
      match float_of_string_opt s with
      | Some x -> Ast.Real_lit (x, true)
      | None -> calls_error ln "argument %S is not an integer or real literal" s)

(** Hard per-line cap shared by the calls-file parser and the socket
    wire protocol ({!Listener}): a pathological multi-megabyte request
    line is rejected with a classified parse fault up front instead of
    being trimmed, split and repeatedly copied. *)
let max_call_line_bytes = 1_048_576

let parse_call ln line =
  match String.index_opt line '(' with
  | None ->
    let name = String.trim line in
    if name = "" || not (String.for_all is_ident_char name) then
      calls_error ln "expected 'function(arg, ...)', got %S" line;
    { cl_line = ln; cl_name = name; cl_args = [] }
  | Some op ->
    let name = String.trim (String.sub line 0 op) in
    if name = "" || not (String.for_all is_ident_char name) then
      calls_error ln "bad function name %S" (String.trim (String.sub line 0 op));
    let cp =
      match String.rindex_opt line ')' with
      | None -> calls_error ln "missing ')' in call to %s" name
      | Some cp -> cp
    in
    let trailing =
      String.trim (String.sub line (cp + 1) (String.length line - cp - 1))
    in
    if trailing <> "" then
      calls_error ln "trailing text %S after ')' in call to %s" trailing name;
    let inside = String.trim (String.sub line (op + 1) (cp - op - 1)) in
    let args =
      if inside = "" then []
      else List.mapi (fun i a -> parse_arg ln (i + 1) a)
             (String.split_on_char ',' inside)
    in
    { cl_line = ln; cl_name = name; cl_args = args }

(** Parse a calls file ([#] comments and blank lines skipped).  CRLF
    line endings and blank trailing lines are accepted (each line is
    trimmed before dispatch); a single line over
    {!max_call_line_bytes} is an error, not an allocation storm.
    @raise Calls_error on malformed or oversized lines. *)
let parse_calls text =
  let lines = String.split_on_char '\n' text in
  List.concat
    (List.mapi
       (fun i line ->
         let ln = i + 1 in
         if String.length line > max_call_line_bytes then
           calls_error ln "line exceeds %d bytes" max_call_line_bytes;
         let s = String.trim line in
         if s = "" || s.[0] = '#' then [] else [ parse_call ln s ])
       lines)

(* --- compile once ------------------------------------------------------- *)

(** A script compiled once for repeated serving: the generated Fortran
    source and its parsed compilation unit. *)
type compiled = {
  co_source : string;  (** generated Fortran source *)
  co_unit : Ast.compilation_unit;
}

(** Build -> auto-parallelize -> generate Fortran -> parse, once.
    [transform] rewrites the parsed unit before it is served — the
    hook a tuning plan ({!Glaf_tune.Plan.apply}) plugs into; the
    default is the identity.
    @raise Glaf_builder.Gpi_script.Script_error on bad scripts. *)
let compile ?(transform = fun cu -> cu) gpi_text =
  let program = Glaf_builder.Gpi_script.run gpi_text in
  let pure = Intrinsics.names () in
  let annotated, _report = Glaf_analysis.Autopar.run ~pure program in
  let src =
    Glaf_codegen.Fortran_gen.to_source
      ~opts:Glaf_codegen.Fortran_gen.default_options annotated
  in
  { co_source = src; co_unit = transform (Parser.parse_string src) }

(** Non-raising {!compile}: script errors come back as [Parse_fault],
    failures of the analysis/codegen/reparse stages as
    [Analysis_fault]. *)
let compile_result ?transform gpi_text =
  match compile ?transform gpi_text with
  | c -> Ok c
  | exception Glaf_builder.Gpi_script.Script_error (line, reason) ->
    Error (Fault.Parse_fault { line; reason })
  | exception Parser.Parse_error (line, reason) ->
    Error
      (Fault.Analysis_fault
         { reason = Printf.sprintf "generated source line %d: %s" line reason })
  | exception e -> Error (Fault.Analysis_fault { reason = Printexc.to_string e })

(** Non-raising {!parse_calls}. *)
let parse_calls_result text =
  match parse_calls text with
  | calls -> Ok calls
  | exception Calls_error (line, reason) ->
    Error (Fault.Parse_fault { line; reason })

(* --- serve -------------------------------------------------------------- *)

(** Result of one served invocation. *)
type outcome = {
  oc_call : call;
  oc_value : Value.t option;  (** function result; [None] for subroutines *)
  oc_output : string;  (** PRINT output captured during the call *)
  oc_time_s : float;  (** wall-clock seconds for this invocation *)
}

(* Map an exception escaping one interpreted call to the structured
   taxonomy.  Anything unrecognised still becomes a runtime fault:
   one bad call must never take the batch down. *)
let classify_exn (call : call) (e : exn) : Fault.t =
  let name = call.cl_name and line = call.cl_line in
  match e with
  | Fault.Cancelled reason -> Fault.Timeout_fault { call = name; line; reason }
  | Fault.Pool_error reason -> Fault.Pool_fault { call = name; line; reason }
  | Glaf_interp.Interp.Fortran_error reason ->
    Fault.Runtime_fault { call = name; line; reason }
  | Value.Runtime_error reason ->
    Fault.Runtime_fault { call = name; line; reason }
  | Farray.Bounds_error reason ->
    Fault.Runtime_fault { call = name; line; reason = "array bounds: " ^ reason }
  | Faultinject.Injected what ->
    Fault.Runtime_fault { call = name; line; reason = "injected fault: " ^ what }
  | Glaf_interp.Interp.Stop_program msg ->
    Fault.Runtime_fault
      {
        call = name;
        line;
        reason =
          (match msg with Some m -> "STOP: " ^ m | None -> "STOP reached");
      }
  | Stack_overflow ->
    Fault.Runtime_fault { call = name; line; reason = "stack overflow" }
  | e ->
    Fault.Runtime_fault { call = name; line; reason = Printexc.to_string e }

(** Run one call on a {e fresh} interpreter state (per-invocation grid
    isolation: SAVE variables, module data and allocations of one call
    are invisible to the next).  Never raises: failures come back as a
    classified {!Fault.t}.  One attempt only: retries of transient
    faults belong to the {!Executor} that {!run_calls} and the
    listener serve through.

    [deadline_s] installs a per-call watchdog token polled at pool
    chunk boundaries and interpreter loop iterations — a runaway
    kernel returns [Timeout_fault] instead of wedging the batch. *)
let run_call ?threads ?sched ?deadline_s ?bytecode compiled call =
  let buf = Buffer.create 64 in
  let token = Fault.make_token ?deadline_s () in
  match
    Fault.with_token token (fun () ->
        let st =
          Glaf_interp.Interp.make_state ~printer:(Buffer.add_string buf)
            compiled.co_unit
        in
        (match threads with
        | Some n -> Glaf_interp.Interp.set_threads st n
        | None -> ());
        (match sched with
        | Some s -> Glaf_interp.Interp.set_schedule st s
        | None -> ());
        (match bytecode with
        | Some b -> Glaf_interp.Interp.set_bytecode st b
        | None -> ());
        let t0 = Clock.now_s () in
        let v = Glaf_interp.Interp.call st call.cl_name call.cl_args in
        let t1 = Clock.now_s () in
        {
          oc_call = call;
          oc_value = v;
          oc_output = Buffer.contents buf;
          oc_time_s = t1 -. t0;
        })
  with
  | oc -> Ok oc
  | exception e -> Error (classify_exn call e)

(** Per-batch fault report. *)
type batch = {
  b_results : (call * (outcome, Fault.t) result) list;
      (** served calls in file order (skipped calls excluded) *)
  b_ok : int;
  b_failed : int;
  b_skipped : int;  (** calls never attempted after a [max_errors] abort *)
  b_by_class : (Fault.cls * int) list;  (** non-zero classes, descending *)
  b_first_faults : Fault.t list;  (** first {!max_reported_faults} faults *)
  b_aborted : bool;
}

let max_reported_faults = 5

let summarize ~results ~skipped ~aborted =
  let ok =
    List.length (List.filter (fun (_, r) -> Result.is_ok r) results)
  in
  let faults =
    List.filter_map
      (function _, Error f -> Some f | _, Ok _ -> None)
      results
  in
  let by_class =
    List.filter_map
      (fun c ->
        match List.length (List.filter (fun f -> Fault.cls_of f = c) faults) with
        | 0 -> None
        | n -> Some (c, n))
      Fault.all_classes
    |> List.sort (fun (_, a) (_, b) -> compare b a)
  in
  {
    b_results = results;
    b_ok = ok;
    b_failed = List.length faults;
    b_skipped = skipped;
    b_by_class = by_class;
    b_first_faults = List.filteri (fun i _ -> i < max_reported_faults) faults;
    b_aborted = aborted;
  }

let idle_wakeups = Executor.idle_wakeups
let reset_idle_wakeups = Executor.reset_idle_wakeups

type slot =
  | Pending
  | Done of (call * (outcome, Fault.t) result)
  | Skip  (** never attempted: batch aborted first *)

(** Serve a batch of calls through one {!Executor} with [concurrency]
    workers (the caller's domain is one of them).  Each in-flight call
    owns a fresh interpreter state and its own deadline token, and
    its parallel regions multiplex onto the shared worker pool.  A
    failing call is recorded and serving {e continues}; [retries]
    requeues transient faults with a [backoff_s * 2^attempt]
    not-before time, and [max_errors] aborts the remainder of the
    batch once that many calls have failed ([b_skipped]/[b_aborted]
    report the cut).  [on_result] streams each result in file order
    (the CLI prints from it): a result is held back until every
    earlier call has resolved.  For deterministic schedules the
    per-call outputs do not depend on [concurrency] — chunk plans and
    reduction combining order do not depend on which worker runs a
    chunk. *)
let run_calls ?(concurrency = 1) ?threads ?sched ?deadline_s ?bytecode
    ?retries ?backoff_s ?max_errors ?(on_result = fun _ _ -> ()) compiled
    calls =
  let n = List.length calls in
  let results = Array.make n Pending in
  let mu = Mutex.create () in
  let failed = ref 0 and aborted = ref false and next_emit = ref 0 in
  let ex = Executor.create ?retries ?backoff_s () in
  List.iteri (fun i c -> ignore (Executor.submit ex (i, c))) calls;
  Executor.close ex;
  (* under [mu]: stream every result whose predecessors have resolved *)
  let rec emit_in_order () =
    if !next_emit < n then
      match results.(!next_emit) with
      | Pending -> ()
      | Skip -> incr next_emit; emit_in_order ()
      | Done (c, r) -> on_result c r; incr next_emit; emit_in_order ()
  in
  let record (i, c) r =
    results.(i) <- Done (c, r);
    if Result.is_error r then incr failed
  in
  let finish job r =
    Mutex.protect mu (fun () ->
        record job r;
        (match max_errors with
        | Some k when !failed >= k && not !aborted ->
          aborted := true;
          (* the abort cut: never-attempted jobs are skipped; jobs
             mid-backoff have already failed, so they count as their
             last fault *)
          List.iter
            (fun (((i, _) as job), last) ->
              match last with
              | None -> results.(i) <- Skip
              | Some f -> record job (Error f))
            (Executor.abort ex)
        | _ -> ());
        emit_in_order ())
  in
  Executor.run ex ~workers:(min concurrency n) ~finish
    ~attempt:(fun (_, c) -> run_call ?threads ?sched ?deadline_s ?bytecode compiled c);
  let results = Array.to_list results in
  summarize
    ~results:(List.filter_map (function Done cr -> Some cr | Pending | Skip -> None) results)
    ~skipped:(List.length (List.filter (function Done _ -> false | Pending | Skip -> true) results))
    ~aborted:!aborted

let pp_args ppf = function
  | [] -> Format.pp_print_string ppf "()"
  | args ->
    Format.fprintf ppf "(%s)"
      (String.concat ", " (List.map Pp_ast.expr_to_string args))

let pp_outcome ppf oc =
  Format.fprintf ppf "[line %d] %s%a -> %s  (%.3f ms)"
    oc.oc_call.cl_line oc.oc_call.cl_name pp_args oc.oc_call.cl_args
    (match oc.oc_value with
    | Some v -> Value.to_string v
    | None -> "(subroutine completed)")
    (oc.oc_time_s *. 1e3);
  if oc.oc_output <> "" then
    Format.fprintf ppf "@\n%s" (String.trim oc.oc_output)

(** One-line summary plus the first few fault messages, e.g. after a
    partially-failed batch. *)
let pp_batch_summary ppf b =
  Format.fprintf ppf "batch: %d ok, %d failed%s of %d calls"
    b.b_ok b.b_failed
    (if b.b_skipped > 0 then Printf.sprintf ", %d skipped (batch aborted)" b.b_skipped
     else "")
    (b.b_ok + b.b_failed + b.b_skipped);
  if b.b_by_class <> [] then begin
    Format.fprintf ppf "@\nfaults by class:";
    List.iter
      (fun (c, n) -> Format.fprintf ppf " %s:%d" (Fault.cls_name c) n)
      b.b_by_class;
    Format.fprintf ppf "@\nfirst faults:";
    List.iter
      (fun f -> Format.fprintf ppf "@\n  %s" (Fault.to_string f))
      b.b_first_faults
  end

(** Machine-readable batch summary (same fault shape as
    {!Fault.to_json}). *)
let batch_to_json b =
  Printf.sprintf
    "{\"ok\":%d,\"failed\":%d,\"skipped\":%d,\"aborted\":%b,\"by_class\":{%s},\"faults\":[%s]}"
    b.b_ok b.b_failed b.b_skipped b.b_aborted
    (String.concat ","
       (List.map
          (fun (c, n) -> Printf.sprintf "\"%s\":%d" (Fault.cls_name c) n)
          b.b_by_class))
    (String.concat "," (List.map Fault.to_json b.b_first_faults))
