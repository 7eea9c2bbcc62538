(* In-memory spans for the traced run.

   A span records its name, start and end on a monotonic clock, the
   span that encloses it, and the id of the operation it belongs to.
   Spans are opened only by the benchmark's own code, around calls
   into the library's public functions; nothing inside the library is
   instrumented.  With tracing off, [span] is a plain call.  Spans are
   kept in memory and written out once, when the run ends. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type span = {
  id : int;
  name : string;
  op : int;  (* operation id; 0 for set-up and post-run probes *)
  parent : int;  (* id of the enclosing span, -1 at top level *)
  t0 : int;
  mutable t1 : int;
  mutable child_ns : int;  (* time covered by direct children *)
}

let enabled = ref false
let finished : span list ref = ref []
let stack : span list ref = ref []
let next_id = ref 0
let current_op = ref 0

let set_op id = current_op := id

let span name f =
  if not !enabled then f ()
  else begin
    let parent = match !stack with p :: _ -> p.id | [] -> -1 in
    let s =
      { id = !next_id; name; op = !current_op; parent; t0 = now_ns ();
        t1 = 0; child_ns = 0 }
    in
    incr next_id;
    stack := s :: !stack;
    let close () =
      s.t1 <- now_ns ();
      stack := List.tl !stack;
      (match !stack with
      | p :: _ -> p.child_ns <- p.child_ns + (s.t1 - s.t0)
      | [] -> ());
      finished := s :: !finished
    in
    Fun.protect ~finally:close f
  end

(* An interval timed elsewhere, for work that overlaps other spans
   (requests outstanding on several connections at once). *)
let add name ~op ~t0 ~t1 =
  if !enabled then begin
    finished :=
      { id = !next_id; name; op; parent = -1; t0; t1; child_ns = 0 } :: !finished;
    incr next_id
  end

let duration s = s.t1 - s.t0

(* Children of one span run one after another in the calling domain,
   so the time they cover is the sum of their durations. *)
let self_ns s = duration s - s.child_ns

let all () = List.rev !finished

type summary = { sm_name : string; sm_count : int; sm_total_ns : int; sm_self_ns : int }

let summary () =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let c, tot, self =
        Option.value ~default:(0, 0, 0) (Hashtbl.find_opt tbl s.name)
      in
      Hashtbl.replace tbl s.name (c + 1, tot + duration s, self + self_ns s))
    !finished;
  Hashtbl.fold
    (fun sm_name (sm_count, sm_total_ns, sm_self_ns) acc ->
      { sm_name; sm_count; sm_total_ns; sm_self_ns } :: acc)
    tbl []
  |> List.sort (fun a b -> compare b.sm_self_ns a.sm_self_ns)

(* Chrome trace-event JSON: one complete ("X") event per span,
   timestamps in microseconds from the first span. *)
let write_chrome path =
  let spans = all () in
  let base = List.fold_left (fun m s -> min m s.t0) max_int spans in
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\
         \"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"op\":%d,\
         \"self_us\":%.3f}}\n"
        (if i = 0 then "" else ",")
        s.name
        (float_of_int (s.t0 - base) /. 1e3)
        (float_of_int (duration s) /. 1e3)
        s.id s.parent s.op
        (float_of_int (self_ns s) /. 1e3))
    spans;
  output_string oc "]}\n";
  close_out oc
