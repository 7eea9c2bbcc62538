(* The layered benchmark.

   [main.exe --workload W --seed N --seconds S --trace 0|1] sets up
   workload W from seed N, runs it as a closed loop for S seconds,
   checks every operation's output against a reference computed at
   set-up, and prints one JSON result object as its last line.  With
   [--trace 0] the metrics are the end-to-end ones; with [--trace 1]
   spans are recorded around the calls into each layer's public
   functions and the metrics are the per-layer ones.  Run it through
   [perfbench/run.py], which builds it first.  See perfbench/README.md
   for the workloads and the layer map. *)

open Glaf_fortran
module Interp = Glaf_interp.Interp
module Bytecode = Glaf_interp.Bytecode
module Pool = Glaf_runtime.Pool
module Sched = Glaf_runtime.Sched
module Value = Glaf_runtime.Value
module Serve = Glaf_service.Serve
module Listener = Glaf_service.Listener
module Autopar_fortran = Glaf_lift.Autopar_fortran
module Verify = Glaf_lift.Verify
module Lift_kernel = Glaf_lift.Lift_kernel
module Tuner = Glaf_tune.Tuner

let span = Trace.span
let now_ns = Trace.now_ns

(* Fallback for the process start when no --spawn-ns is given. *)
let start_ns = now_ns ()

(* --- command line ---------------------------------------------------------- *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10
let trace = ref 0
let commit = ref "unknown"
let source_digest = ref "unknown"

(* Monotonic time at which the process was spawned, as its parent read
   it just before spawning; 0 when not given. *)
let spawn_ns = ref 0

(* Set up, print the set-up time in ns and exit: one cold set-up. *)
let setup_only = ref false

(* Cold set-ups per run, each in a fresh process; [setup_s] is their
   median.  A run makes at least [setup_reps], and more until they add
   up to [setup_min_s]: as the median of 5, serve_churn's 0.15 s
   set-up spread 26 % between runs. *)
let setup_reps = 9
let setup_min_s = 2.0

let nproc = Domain.recommended_domain_count ()

(* The server serve_churn starts, as run.py builds it. *)
let oglaf = "_build/default/bin/oglaf.exe"

(* Sockets, server logs and traces. *)
let out_dir = ".perfbench"

(* --- small helpers --------------------------------------------------------- *)

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

let read_file path = In_channel.with_open_bin path In_channel.input_all

let fixture name = read_file (Filename.concat "examples/fortran" name)

let real x = Ast.Real_lit (x, true)

let pure = Glaf_runtime.Intrinsics.names ()

let to_float = function
  | Some v -> Value.to_float v
  | None -> failwith "call returned no value"

(* Nearest-rank percentile of an ascending array. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let rank = int_of_float (ceil (q *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

let sorted_of_list xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs = percentile (sorted_of_list xs) 0.5

let ms_of_ns ns = float_of_int ns /. 1e6

(* VmHWM of a live process, in MB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match
    In_channel.with_open_text path (fun ic ->
        let rec find () =
          match In_channel.input_line ic with
          | None -> None
          | Some l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb ->
                Some (float_of_int kb /. 1024.0))
          | Some _ -> find ()
        in
        find ())
  with
  | Some mb -> mb
  | None -> die "no VmHWM in %s" path
  | exception Sys_error e -> die "cannot read peak RSS: %s" e

let json_escape = Glaf_runtime.Fault.json_escape
let json_array f xs = "[" ^ String.concat "," (Array.to_list (Array.map f xs)) ^ "]"

(* --- the measured loop ----------------------------------------------------- *)

(* Outcome of one operation: its output matched the reference, did
   not, or the operation raised / was refused. *)
type outcome = Pass | Wrong of string | Failed of string

type tally = {
  mutable attempted : int;
  mutable failed : int;  (* wrong results included *)
  mutable wrong : int;
  mutable spans : (int * int) list;  (* start and end of each operation, in ns, newest first *)
  mutable notes : string list;  (* first few failure messages *)
}

let new_tally () =
  { attempted = 0; failed = 0; wrong = 0; spans = []; notes = [] }

let record t ~t0 ~t1 outcome =
  t.attempted <- t.attempted + 1;
  t.spans <- (t0, t1) :: t.spans;
  let note m = if List.length t.notes < 5 then t.notes <- m :: t.notes in
  match outcome with
  | Pass -> ()
  | Wrong m ->
    t.failed <- t.failed + 1;
    t.wrong <- t.wrong + 1;
    note ("wrong result: " ^ m)
  | Failed m ->
    t.failed <- t.failed + 1;
    note ("failed: " ^ m)

let guard f = try f () with e -> Failed (Printexc.to_string e)

(* Closed loop with one caller: the next operation starts when the
   previous one has returned.  The loop stops at the first whole
   [round] of operations after [seconds]. *)
let closed_loop ?(round = 1) ~seconds op =
  let t = new_tally () in
  let deadline = now_ns () + (seconds * 1_000_000_000) in
  let rec go i =
    if now_ns () < deadline || (i - 1) mod round <> 0 then begin
      Trace.set_op i;
      let t0 = now_ns () in
      let outcome = span "op" (fun () -> guard (fun () -> op i)) in
      record t ~t0 ~t1:(now_ns ()) outcome;
      go (i + 1)
    end
  in
  go 1;
  Trace.set_op 0;
  t

(* --- per-layer bookkeeping --------------------------------------------------- *)

(* Median duration of the spans called [name] that belong to measured
   operations ([setup:false]) or to set-up and post-run probes; None
   when no such span was recorded, so the metric counts as not
   measured. *)
let span_median ?(setup = false) ~scale name =
  let ds =
    List.filter_map
      (fun (s : Trace.span) ->
        if s.name = name && (s.op = 0) = setup then
          Some (float_of_int (Trace.duration s) /. scale)
        else None)
      (Trace.all ())
  in
  if ds = [] then None else Some (median ds)

(* Share of the operation spans' time outside every layer call: the
   benchmark's own bookkeeping plus anything unattributed. *)
let unattributed_share () =
  let total = ref 0 and self = ref 0 in
  List.iter
    (fun (s : Trace.span) ->
      if s.name = "op" && s.op > 0 && s.parent = -1 then begin
        total := !total + Trace.duration s;
        self := !self + Trace.self_ns s
      end)
    (Trace.all ());
  if !total = 0 then None else Some (float_of_int !self /. float_of_int !total)

let us = 1e3
let ms = 1e6

let pool_delta (a : Pool.stats) (b : Pool.stats) ~ops =
  let per x = float_of_int x /. float_of_int (max 1 ops) in
  let regions = b.regions - a.regions in
  let region_ns = b.region_ns - a.region_ns in
  let busy = b.busy_ns - a.busy_ns and idle = b.idle_ns - a.idle_ns in
  [
    ("pool.regions_per_op", per regions);
    ("pool.inline_per_op", per (b.inline_regions - a.inline_regions));
    ("pool.tasks_per_op", per (b.tasks - a.tasks));
    ( "pool.region_us",
      if regions = 0 then 0.0 else float_of_int region_ns /. float_of_int regions /. us );
    ( "pool.idle_share",
      if busy + idle = 0 then 0.0 else float_of_int idle /. float_of_int (busy + idle) );
  ]

(* Cost of entering and leaving one empty region at [threads]: the
   fork/join floor every parallel loop pays. *)
let pool_entry_us ~threads sched =
  let body _ _ _ = () in
  let region () = Pool.run ~threads ~sched ~lo:1 ~hi:threads body in
  for _ = 1 to 100 do region () done;
  let batch = 200 in
  let sample () =
    span "pool.run.empty" (fun () ->
        let t0 = now_ns () in
        for _ = 1 to batch do region () done;
        float_of_int (now_ns () - t0) /. float_of_int batch /. us)
  in
  median (List.init 15 (fun _ -> sample ()))

let pool_entry () =
  [
    ("pool.entry_us.static", pool_entry_us ~threads:nproc Sched.Static);
    ("pool.entry_us.dynamic", pool_entry_us ~threads:nproc (Sched.Dynamic 1));
  ]

(* Bytecode run/bail counts of one compilation unit, per site. *)
let bytecode_counts cu =
  let u = Bytecode.unit_key cu in
  List.filter_map
    (fun (r : Interp.bytecode_row) ->
      if r.r_unit = u then Some (r.r_id, (r.r_runs, r.r_bails)) else None)
    (Interp.bytecode_stats ())

let bytecode_delta before after =
  let runs = ref 0 and bails = ref 0 and sites = ref 0 in
  List.iter
    (fun (id, (r1, b1)) ->
      let r0, b0 = Option.value ~default:(0, 0) (List.assoc_opt id before) in
      runs := !runs + (r1 - r0);
      bails := !bails + (b1 - b0);
      if b1 > b0 then incr sites)
    after;
  [
    ( "bytecode.bail_share",
      if !runs + !bails = 0 then 0.0
      else float_of_int !bails /. float_of_int (!runs + !bails) );
    ("bytecode.bail_sites", float_of_int !sites);
  ]

(* --- workload description ----------------------------------------------------- *)

(* One set-up of a workload, ready to measure. *)
type ctx = {
  params : (string * string) list;  (* generated parameters, raw JSON values *)
  round : int;
      (* operations in one round of the workload's mix; 1 = no rounds.
         A run ends on a whole round, and each round is a chunk. *)
  measure : seconds:int -> tally;
  layers : tally -> (string * float option) list;
      (* traced run, after measuring; None = not measured *)
  rss_mb : unit -> float;
  stop : unit -> unit;
}

let self_rss () = peak_rss_mb "self"

let measured xs = List.map (fun (name, v) -> (name, Some v)) xs

(* Host-noise diagnostics for the run line; no metric depends on them.
   The canary times a fixed single-thread float loop, so a run on a
   host that was slow at the time shows a larger canary. *)
let canary_ms () =
  let once () =
    let t0 = now_ns () in
    let x = ref 1.0 in
    for i = 1 to 400_000 do
      x := Float.fma !x 0.999999 (float_of_int (i land 7))
    done;
    ignore (Sys.opaque_identity !x);
    ms_of_ns (now_ns () - t0)
  in
  median (List.init 9 (fun _ -> once ()))

(* Steal and total ticks of all CPUs, from the first line of /proc/stat. *)
let cpu_ticks () =
  match In_channel.with_open_text "/proc/stat" In_channel.input_line with
  | Some line -> (
    match List.filter (( <> ) "") (String.split_on_char ' ' line) with
    | "cpu" :: fields ->
      let ticks = List.filteri (fun i _ -> i < 8) (List.map int_of_string fields) in
      (List.nth ticks 7, List.fold_left ( + ) 0 ticks)
    | _ -> (0, 0))
  | None | (exception Sys_error _) | (exception Failure _) -> (0, 0)

(* --- sarb_entropy and fun3d_jacobian ---------------------------------------------- *)

(* A legacy fixture, auto-parallelized at set-up, whose kernel runs once
   per operation on fresh interpreter state, at 1 thread.  At nproc
   threads every parallel region waits at its join for the slower vCPU,
   so on a shared VM the run-to-run spread followed the host's steal
   time, 2-3x over the bounds; the fork/join picture is taken in the
   traced run instead, from a probe at nproc threads. *)
type 'a kernel = {
  k_fixture : string;
  k_inputs : 'a array;  (* operations draw their input from these *)
  k_input_json : 'a -> string;
  k_error : reference:float -> float -> float;  (* checked against k_tol *)
  k_tol : float;
  k_init : string * ('a -> Ast.expr list);  (* set-up call on fresh state *)
  k_exec : string * ('a -> Ast.expr list);  (* the kernel call *)
  k_result : string;  (* function returning the checked figure *)
  k_serial : string;  (* layer-metric prefix of the serial baseline *)
}

(* One kernel call on fresh state; returns the checked figure and the
   state's allocation count.  [exec] names the span around the kernel. *)
let kernel_call k ~exec cu ~threads ~bytecode input =
  let st =
    span "interp.make_state" (fun () -> Interp.make_state ~printer:ignore cu)
  in
  Interp.set_threads st threads;
  Interp.set_bytecode st bytecode;
  let call name args = Interp.call st name args in
  span "interp.call.init" (fun () ->
      ignore (call (fst k.k_init) (snd k.k_init input)));
  span exec (fun () -> ignore (call (fst k.k_exec) (snd k.k_exec input)));
  let figure =
    span "interp.call.result" (fun () -> to_float (call k.k_result []))
  in
  (figure, Interp.allocations st)

let kernel_setup k rng =
  let text = fixture k.k_fixture in
  let original = span "fortran.parse" (fun () -> Parser.parse_string text) in
  let annotated =
    span "lift.autopar" (fun () ->
        (Autopar_fortran.run ~pure original).Autopar_fortran.annotated)
  in
  (* the serial original under the tree-walker is the reference *)
  let refs =
    Array.map
      (fun input ->
        fst (kernel_call k ~exec:"ref.exec" original ~threads:1 ~bytecode:false input))
      k.k_inputs
  in
  let n = Array.length k.k_inputs in
  let draws = Array.init 4096 (fun _ -> Random.State.int rng n) in
  let allocs = ref 0 in
  let check j figure =
    if k.k_error ~reference:refs.(j) figure <= k.k_tol then Pass
    else Wrong (Printf.sprintf "%s %.17g vs reference %.17g" k.k_result figure refs.(j))
  in
  let run_input j =
    let figure, a =
      kernel_call k ~exec:"interp.exec" annotated ~threads:1 ~bytecode:true k.k_inputs.(j)
    in
    allocs := !allocs + a;
    check j figure
  in
  let run_op i = run_input draws.(i mod Array.length draws) in
  (* warm-up: every input once, which also fills the bytecode cache *)
  for j = 0 to n - 1 do
    match run_input j with
    | Pass -> ()
    | Wrong m | Failed m -> die "warm-up: %s" m
  done;
  let bc0 = ref [] in
  let serial_span = k.k_serial ^ ".serial_ref" and parallel_span = k.k_serial ^ ".parallel" in
  {
    round = 1;
    params =
      [
        ("threads", "1");
        ("probe_threads", string_of_int nproc);
        ("inputs", json_array k.k_input_json k.k_inputs);
        ("tolerance", Printf.sprintf "%g" k.k_tol);
      ];
    measure =
      (fun ~seconds ->
        allocs := 0;
        bc0 := bytecode_counts annotated;
        closed_loop ~seconds run_op);
    layers =
      (fun t ->
        let ops = max 1 t.attempted in
        let bc = bytecode_delta !bc0 (bytecode_counts annotated) in
        let probes = 3 * n in
        (* the annotated kernel at nproc threads: the pool's work per call *)
        let pool0 = Pool.stats () in
        for i = 0 to probes - 1 do
          let j = i mod n in
          let figure, _ =
            kernel_call k ~exec:parallel_span annotated ~threads:nproc ~bytecode:true
              k.k_inputs.(j)
          in
          match check j figure with
          | Pass -> ()
          | Wrong m | Failed m -> die "probe at %d threads: %s" nproc m
        done;
        let pool = pool_delta pool0 (Pool.stats ()) ~ops:probes in
        (* the un-annotated fixture at 1 thread on the default engine:
           the serial original the paper's speed-ups are taken over *)
        for i = 0 to probes - 1 do
          ignore
            (kernel_call k ~exec:serial_span original ~threads:1 ~bytecode:true
               k.k_inputs.(i mod n))
        done;
        let serial_ms = span_median ~setup:true ~scale:ms serial_span in
        let parallel_ms = span_median ~setup:true ~scale:ms parallel_span in
        measured
          (pool @ bc @ pool_entry ()
          @ [ ("interp.allocations_per_op", float_of_int !allocs /. float_of_int ops) ])
        @ [
            ("interp.exec_ms", span_median ~scale:ms "interp.exec");
            ("interp.make_state_us", span_median ~scale:us "interp.make_state");
            (k.k_serial ^ ".serial_ref_ms", serial_ms);
            ( k.k_serial ^ ".speedup_vs_serial",
              match (serial_ms, parallel_ms) with
              | Some s, Some p when p > 0.0 -> Some (s /. p)
              | _ -> None );
            (* set-up cost of the front half of the tool chain *)
            ("fortran.parse_us", span_median ~setup:true ~scale:us "fortran.parse");
            ("lift.autopar_ms", span_median ~setup:true ~scale:ms "lift.autopar");
            ("trace.unattributed_share", unattributed_share ());
          ]);
    rss_mb = self_rss;
    stop = ignore;
  }

let pair_args (dtemp, qfac) = [ real dtemp; real qfac ]
let pair_json (dtemp, qfac) = Printf.sprintf "[%g,%g]" dtemp qfac

let sarb_pairs =
  [| (0.5, 0.98); (0.5, 1.02); (1.0, 0.98); (1.0, 1.02);
     (1.5, 0.98); (1.5, 1.02); (2.0, 0.98); (2.0, 1.02) |]

let sarb_entropy =
  kernel_setup
    {
      k_fixture = "sarb_kernels.f90";
      k_inputs = sarb_pairs;
      k_input_json = pair_json;
      (* Sarb.verify's tolerance: relative to max(1, |reference|) *)
      k_error =
        (fun ~reference got ->
          Float.abs (got -. reference) /. Float.max 1.0 (Float.abs reference));
      k_tol = 1e-9;
      k_init = ("sarb_init_profiles", fun _ -> []);
      k_exec = ("entropy_interface", pair_args);
      k_result = "sarb_checksum";
      k_serial = "sarb";
    }

let fun3d_jacobian =
  kernel_setup
    {
      k_fixture = "fun3d_kernels.f90";
      k_inputs = [| 120; 122; 124; 126; 128; 130; 132; 134; 136 |];
      k_input_json = string_of_int;
      (* the paper's FUN3D tolerance: absolute on the RMS *)
      k_error = (fun ~reference got -> Float.abs (got -. reference));
      k_tol = 1e-7;
      k_init = ("fun3d_init_mesh", fun nc -> [ Ast.Int_lit nc ]);
      k_exec = ("jacobian_fill", fun _ -> []);
      k_result = "fun3d_rms";
      k_serial = "fun3d";
    }

(* --- serve_churn ------------------------------------------------------------------- *)

(* Index of the first [needle] in [hay], without allocating. *)
let find_sub hay needle =
  let n = String.length needle and h = String.length hay in
  let rec matches i j = j = n || (hay.[i + j] = needle.[j] && matches i (j + 1)) in
  let rec go i = if i + n > h then None else if matches i 0 then Some i else go (i + 1) in
  go 0

let replace_first hay needle by =
  match find_sub hay needle with
  | None -> die "script template lacks %S" needle
  | Some i ->
    let n = String.length needle in
    String.sub hay 0 i ^ by ^ String.sub hay (i + n) (String.length hay - i - n)

module Json = Glaf_tune.Plan.Json

(* The value at [path] in a parsed JSON object. *)
let json_at v path = List.fold_left (fun acc k -> Option.bind acc (Json.field k)) (Some v) path

(* A seeded variant of an example script: [literal] in the script is
   replaced, so every variant is a distinct program with its own
   result, and the call it is served with.  [rank] is the variant's
   popularity rank.  Where a call's cost depends on its arguments, they
   follow the rank, not the seed, so every seed's traffic costs the
   same mix. *)
type template = {
  t_file : string;
  t_literal : string;
  t_make : k:int -> rank:int -> Random.State.t -> string * string;  (* replacement, call *)
}

let templates =
  [
    {
      t_file = "quad_sweep.gpi";
      t_literal = "set acc = acc + 4.0 /";
      t_make =
        (fun ~k ~rank _ ->
          ( Printf.sprintf "set acc = acc + %.4f /" (4.0 +. (0.0001 *. float_of_int k)),
            Printf.sprintf "pi_mid(%d)" (100 + (50 * (rank / 3 mod 8))) ));
    };
    {
      t_file = "saxpy.gpi";
      t_literal = "set s = 0.0";
      t_make =
        (fun ~k ~rank:_ rng ->
          ( Printf.sprintf "set s = %.4f" (0.5 +. (0.0001 *. float_of_int k)),
            Printf.sprintf "axpy(0, %.2f, 0, 0)" (1.0 +. Random.State.float rng 2.0) ));
    };
    {
      t_file = "point_charge.gpi";
      t_literal = "set sum_f = 0.0";
      t_make =
        (fun ~k ~rank:_ rng ->
          ( Printf.sprintf "set sum_f = %.4f" (1.5 +. (0.0001 *. float_of_int k)),
            Printf.sprintf "calc_point_charge(0, 0.0, 0.0, %.2f)"
              (Random.State.float rng 4.0) ));
    };
  ]

type variant = {
  v_script : string;
  v_call : string;
  v_request : string;  (* wire line *)
  v_expected : string option;  (* reference value, as the server prints it *)
}

let serve_variants = 192
let zipf_s = 1.0
let serve_warmup = 400

(* Measured requests per server.  The server slows as it serves: its
   heap grows with every compile (see README), and a 25 s run went
   from 8,300 to 1,900 requests/s, so a run's figures followed how many
   requests it had got through, that is the host's speed.  A run is
   therefore a series of epochs, each a fresh server fed the same
   warm-up and the same [serve_epoch] requests; each epoch is a chunk.
   The slow-down within an epoch still shows in every figure. *)
let serve_epoch = 10_000

let make_variants rng =
  let texts =
    List.map (fun t -> read_file (Filename.concat "examples/scripts" t.t_file)) templates
  in
  let offset = Random.State.int rng 10_000 in
  Array.init serve_variants (fun i ->
      (* rank i goes to template (i mod 3): every template keeps the
         same share of the traffic whatever the seed *)
      let ti = i mod List.length templates in
      let t = List.nth templates ti in
      let by, call = t.t_make ~k:(offset + i) ~rank:i rng in
      let script = replace_first (List.nth texts ti) t.t_literal by in
      let expected =
        let compiled = Serve.compile script in
        match Serve.run_call ~bytecode:false compiled (Serve.parse_call 1 call) with
        | Ok oc -> Option.map Value.to_string oc.Serve.oc_value
        | Error f -> die "reference run of %s failed: %s" call (Glaf_runtime.Fault.to_string f)
      in
      {
        v_script = script;
        v_call = call;
        v_request = "run " ^ call ^ "\t" ^ Listener.escape_script script;
        v_expected = expected;
      })

(* Zipf-popular request stream: variant [r] is drawn with weight
   1/(r+1)^s. *)
let request_stream rng ~len =
  let w = Array.init serve_variants (fun r -> 1.0 /. (float_of_int (r + 1) ** zipf_s)) in
  let cum = Array.make serve_variants 0.0 in
  Array.iteri (fun i x -> cum.(i) <- x +. if i = 0 then 0.0 else cum.(i - 1)) w;
  let total = cum.(serve_variants - 1) in
  Array.init len (fun _ ->
      let u = Random.State.float rng total in
      let lo = ref 0 and hi = ref (serve_variants - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if cum.(mid) < u then lo := mid + 1 else hi := mid
      done;
      !lo)

(* Share of [stream] an LRU cache of [capacity] misses, after the
   warm-up prefix: the miss share the generated traffic implies. *)
let lru_miss_share stream ~capacity ~warm =
  let stamp = Hashtbl.create 256 in
  let misses = ref 0 and counted = ref 0 in
  Array.iteri
    (fun i v ->
      if not (Hashtbl.mem stamp v) then begin
        if i >= warm then incr misses;
        if Hashtbl.length stamp >= capacity then begin
          let victim, _ =
            Hashtbl.fold
              (fun k s (bk, bs) -> if s < bs then (k, s) else (bk, bs))
              stamp (-1, max_int)
          in
          Hashtbl.remove stamp victim
        end
      end;
      Hashtbl.replace stamp v i;
      if i >= warm then incr counted)
    stream;
  float_of_int !misses /. float_of_int (max 1 !counted)

(* Child processes still running (servers and cold set-ups); killed
   and reaped on any exit. *)
let children : int list ref = ref []

let rec waitpid_retry pid =
  match Unix.waitpid [] pid with
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry pid
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()

let () =
  let stop _ = exit 3 in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          waitpid_retry pid)
        !children)

let server_seq = ref 0

(* Start [oglaf serve --listen] and connect one client to it.  One
   connection with one request outstanding keeps one vCPU busy at a
   time: with two, the client and two executors contended for the
   host's two vCPUs and the run-to-run spread followed its steal time,
   while throughput did not rise. *)
let start_server () =
  incr server_seq;
  let base = Printf.sprintf "%d-%d" (Unix.getpid ()) !server_seq in
  let sock = Filename.concat out_dir ("s" ^ base ^ ".sock") in
  let log_path = Filename.concat out_dir ("server-" ^ base ^ ".log") in
  let log =
    Unix.openfile log_path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644
  in
  let argv =
    [| oglaf; "serve"; "examples/scripts/quad_sweep.gpi"; "--listen"; sock;
       "--threads"; "1"; "--concurrency"; "1" |]
  in
  let pid = Unix.create_process oglaf argv Unix.stdin log log in
  Unix.close log;
  children := pid :: !children;
  let deadline = now_ns () + 30_000_000_000 in
  let rec connect () =
    match Listener.Client.connect sock with
    | c -> c
    | exception Unix.Unix_error _ ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ ->
        children := List.filter (( <> ) pid) !children;
        die "server exited during start-up; see %s" log_path);
      if now_ns () > deadline then die "server did not accept within 30 s";
      Unix.sleepf 0.002;
      connect ()
  in
  (pid, connect (), log_path)

let stop_server (pid, client, log_path) =
  Listener.Client.close client;
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  waitpid_retry pid;
  children := List.filter (( <> ) pid) !children;
  try Sys.remove log_path with Sys_error _ -> ()

let status client =
  match Listener.Client.request ~timeout_s:10.0 client "status" with
  | None -> die "no status reply"
  | Some line -> (
    match Json.parse line with
    | Ok v -> v
    | Error e -> die "unreadable status reply (%s): %s" e line)

(* Closed loop over [client]: the next request is sent when the reply
   to the last has arrived.  [more ()] decides whether to send another;
   [reply] sees each reply with its round trip. *)
let rec drive client ~next ~more ~reply =
  if more () then begin
    let v = next () in
    let t0 = now_ns () in
    Listener.Client.send_line client v.v_request;
    match Listener.Client.recv_line ~timeout_s:30.0 client with
    | Some line ->
      reply v ~t0 ~t1:(now_ns ()) line;
      drive client ~next ~more ~reply
    | None -> die "no reply within 30 s, or the server closed the connection"
  end

(* The outcome of one reply, and the server-side time it reports. *)
let check_reply v line =
  let short = if String.length line > 200 then String.sub line 0 200 else line in
  match Json.parse line with
  | Error e -> (Failed (Printf.sprintf "unreadable reply (%s): %s" e short), None)
  | Ok reply ->
    let outcome =
      if Json.field "ok" reply <> Some (Json.Bool true) then Failed short
      else
        let show = Option.value ~default:"null" in
        match Json.field "value" reply with
        | Some (Json.Str got) when Some got = v.v_expected -> Pass
        | Some Json.Null when v.v_expected = None -> Pass
        | Some (Json.Str got) ->
          Wrong (Printf.sprintf "%s returned %s, reference %s" v.v_call got (show v.v_expected))
        | _ -> Wrong ("reply without a value: " ^ short)
    in
    (outcome, Option.bind (Json.field "ms" reply) Json.num)

let status_delta a b path =
  match (Option.bind (json_at a path) Json.num, Option.bind (json_at b path) Json.num) with
  | Some x, Some y -> y -. x
  | _ -> die "status reply lacks %s" (String.concat "." path)

let serve_churn rng =
  let variants = make_variants rng in
  let stream = request_stream rng ~len:(serve_warmup + serve_epoch) in
  let capacity = (Listener.default_config ~socket:"").Listener.lc_cache_capacity in
  let pos = ref 0 in
  let next () =
    let v = variants.(stream.(!pos)) in
    incr pos;
    v
  in
  (* a fresh server, warmed on the first requests of the stream *)
  let fresh_server () =
    let server = start_server () in
    let _, client, _ = server in
    pos := 0;
    drive client ~next ~more:(fun () -> !pos < serve_warmup) ~reply:(fun v ~t0:_ ~t1:_ line ->
        match check_reply v line with
        | Pass, _ -> ()
        | (Wrong m | Failed m), _ -> die "warm-up: %s" m);
    server
  in
  let server = ref (Some (fresh_server ())) in
  let stop () = Option.iter stop_server !server; server := None in
  let counts = Hashtbl.create 8 and rss = ref 0.0 in
  let server_ms = ref [] and overhead_us = ref [] in
  (* one epoch on a warmed server, which it stops *)
  let epoch t =
    let srv = match !server with Some s -> s | None -> fresh_server () in
    server := Some srv;
    let pid, client, _ = srv in
    let status0 = status client in
    drive client ~next
      ~more:(fun () -> !pos < serve_warmup + serve_epoch)
      ~reply:(fun v ~t0 ~t1 line ->
        let outcome, sms = check_reply v line in
        record t ~t0 ~t1 outcome;
        Trace.add "op" ~op:t.attempted ~t0 ~t1;
        if !Trace.enabled then
          Option.iter
            (fun sms ->
              server_ms := sms :: !server_ms;
              overhead_us := ((ms_of_ns (t1 - t0) -. sms) *. 1e3) :: !overhead_us)
            sms);
    let status1 = status client in
    List.iter
      (fun path ->
        let d = status_delta status0 status1 path in
        Hashtbl.replace counts path (d +. Option.value ~default:0.0 (Hashtbl.find_opt counts path)))
      [ [ "status"; "cache"; "hits" ]; [ "status"; "cache"; "misses" ];
        [ "status"; "cache"; "evictions" ]; [ "status"; "shed" ] ];
    rss := Float.max !rss (peak_rss_mb (string_of_int pid));
    stop ()
  in
  {
    round = serve_epoch;
    params =
      [
        ("server_threads_per_call", "1");
        ("connections", "1");
        ("variants", string_of_int serve_variants);
        ("templates", json_array (fun t -> "\"" ^ t.t_file ^ "\"") (Array.of_list templates));
        ("zipf_s", Printf.sprintf "%g" zipf_s);
        ("cache_capacity", string_of_int capacity);
        ("requests_per_server", string_of_int serve_epoch);
        ( "expected_miss_share",
          Printf.sprintf "%.4f" (lru_miss_share stream ~capacity ~warm:serve_warmup) );
      ];
    measure =
      (fun ~seconds ->
        let t = new_tally () in
        let deadline = now_ns () + (seconds * 1_000_000_000) in
        epoch t;
        while now_ns () < deadline do epoch t done;
        t);
    layers =
      (fun _ ->
        let d path = Option.value ~default:0.0 (Hashtbl.find_opt counts ("status" :: path)) in
        let hits = d [ "cache"; "hits" ] and misses = d [ "cache"; "misses" ] in
        let median_of = function [] -> None | xs -> Some (median xs) in
        (* the compile chain, stage by stage, on the same script set *)
        let source_bytes = ref [] in
        for _ = 1 to 3 do
          Array.iter
            (fun v ->
              ignore (span "progcache.compile" (fun () -> Serve.compile v.v_script));
              let program =
                span "builder.gpi" (fun () -> Glaf_builder.Gpi_script.run v.v_script)
              in
              let annotated, _ =
                span "analysis.autopar" (fun () -> Glaf_analysis.Autopar.run ~pure program)
              in
              let src =
                span "codegen.emit" (fun () ->
                    Glaf_codegen.Fortran_gen.to_source
                      ~opts:Glaf_codegen.Fortran_gen.default_options annotated)
              in
              source_bytes := float_of_int (String.length src) :: !source_bytes;
              ignore (span "fortran.parse" (fun () -> Parser.parse_string src)))
            variants
        done;
        [
          ("listener.overhead_us", median_of !overhead_us);
          ("listener.server_exec_ms", median_of !server_ms);
          ("listener.shed", Some (d [ "shed" ]));
          ( "progcache.hit_share",
            if hits +. misses > 0.0 then Some (hits /. (hits +. misses)) else None );
          ("progcache.misses", Some misses);
          ("progcache.evictions", Some (d [ "cache"; "evictions" ]));
          ("progcache.compile_us", span_median ~setup:true ~scale:us "progcache.compile");
          ("builder.gpi_us", span_median ~setup:true ~scale:us "builder.gpi");
          ("analysis.autopar_us", span_median ~setup:true ~scale:us "analysis.autopar");
          ("codegen.emit_us", span_median ~setup:true ~scale:us "codegen.emit");
          ("codegen.source_bytes", median_of !source_bytes);
          ("fortran.parse_us", span_median ~setup:true ~scale:us "fortran.parse");
        ]);
    (* the largest server of the run, plus the client *)
    rss_mb = (fun () -> !rss +. self_rss ());
    stop;
  }

(* --- autopar_tune ------------------------------------------------------------------ *)

let tune_fixture name = read_file (Filename.concat "perfbench/fixtures" name)

(* Mesh sizes of the FUN3D directive verification, taken in turn so
   every run verifies the same mix whatever its seed and length. *)
let verify_ncs = [| 32; 40; 48 |]

let autopar_tune rng =
  let sarb_text = fixture "sarb_kernels.f90" and fun3d_text = fixture "fun3d_kernels.f90" in
  let tune_sources =
    [
      ("sarb_collapse.f90", "entx_init", "ent_sweep");
      ("fun3d_gather.f90", "gatherx_init", "gather_sweep");
    ]
    |> List.map (fun (f, init, sweep) -> (tune_fixture f, init, sweep))
  in
  let draws = Array.init 1024 (fun _ -> Random.State.int rng (Array.length sarb_pairs)) in
  let input i = (draws.(i mod Array.length draws), i mod Array.length verify_ncs) in
  let annotated_loops = ref 0 and configs = ref 0 and variants_verified = ref 0 in
  let verified what = function
    | Ok n when n > 0 ->
      configs := !configs + n;
      Pass
    | Ok _ -> Wrong (what ^ ": no configuration checked")
    | Error e -> Wrong (what ^ ": " ^ e)
  in
  let parse text = span "fortran.parse" (fun () -> Parser.parse_string text) in
  let directives text ~target ~setup ~args =
    let cu = parse text in
    let res = span "lift.autopar" (fun () -> Autopar_fortran.run ~pure cu) in
    annotated_loops := !annotated_loops + Autopar_fortran.annotated_count res;
    verified target
      (span "lift.verify" (fun () ->
           Verify.equivalent ~setup ~args ~original:(cu, target)
             ~variant:(res.Autopar_fortran.annotated, target) ()))
  in
  let lift text kernel ~args =
    let cu = parse text in
    let lk = span "lift.kernel" (fun () -> Lift_kernel.lift ~pure cu kernel) in
    verified kernel
      (span "lift.verify" (fun () ->
           Verify.equivalent ~args ~original:(cu, kernel)
             ~variant:(lk.Lift_kernel.combined, lk.Lift_kernel.kernel) ()))
  in
  (* The tune measures its variants at 1 thread: at 2 it forked and
     joined on both vCPUs and its spread followed the host's steal
     time, like the kernels at nproc threads. *)
  let tune (text, init, sweep) =
    let cu = parse text in
    let r =
      span "tune.search" (fun () ->
          Tuner.tune ~threads:1 ~setup:[ (init, []) ] ~calls:[ (sweep, []) ] cu)
    in
    let counts = List.map (fun l -> l.Tuner.lr_verified) r.Tuner.tn_loops in
    variants_verified := !variants_verified + List.fold_left ( + ) 0 counts;
    if r.Tuner.tn_compose_errors <> [] then
      Wrong (sweep ^ ": " ^ String.concat "; " r.Tuner.tn_compose_errors)
    else if counts = [] || List.mem 0 counts then Wrong (sweep ^ ": a loop verified nothing")
    else Pass
  in
  (* One tool pass is five operations, each one tool call on its own
     input, as a user would make them: directives + verification on
     both legacy fixtures, one kernel lift + verification, and a tune
     of each of two single loops.  Timed one by one, a run has over
     100 operations to take its p90 from, where whole passes gave 25. *)
  let steps =
    Array.of_list
      ([
         (fun (pair, _) ->
           directives sarb_text ~target:"entropy_interface"
             ~setup:[ ("sarb_init_profiles", []) ] ~args:(pair_args sarb_pairs.(pair)));
         (fun (_, nc) ->
           directives fun3d_text ~target:"jacobian_fill"
             ~setup:[ ("fun3d_init_mesh", [ Ast.Int_lit verify_ncs.(nc) ]) ] ~args:[]);
         (fun (pair, _) -> lift sarb_text "adjust2" ~args:(pair_args sarb_pairs.(pair)));
       ]
      @ List.map (fun src _ -> tune src) tune_sources)
  in
  let n_steps = Array.length steps in
  (* operation i (from 1) is step (i - 1) mod n_steps of pass (i - 1) / n_steps *)
  let run_op i = steps.((i - 1) mod n_steps) (input ((i - 1) / n_steps)) in
  for i = 1 to n_steps do
    match guard (fun () -> run_op i) with
    | Pass -> ()
    | Wrong m | Failed m -> die "warm-up: %s" m
  done;
  let pool0 = ref (Pool.stats ()) in
  {
    round = n_steps;
    params =
      [
        ("tune_threads", "1");
        ("ops_per_pass", string_of_int n_steps);
        ("verify_pairs", json_array pair_json sarb_pairs);
        ("verify_nc", json_array string_of_int verify_ncs);
      ];
    measure =
      (fun ~seconds ->
        annotated_loops := 0;
        configs := 0;
        variants_verified := 0;
        pool0 := Pool.stats ();
        closed_loop ~round:n_steps ~seconds run_op);
    layers =
      (fun t ->
        (* per pass: the loop ends on a whole pass *)
        let ops = max 1 (t.attempted / n_steps) in
        let per r = float_of_int !r /. float_of_int ops in
        (* summed per pass: one pass holds several spans of a name *)
        let per_pass ~scale name =
          let spans =
            List.filter (fun (s : Trace.span) -> s.name = name && s.op > 0) (Trace.all ())
          in
          if spans = [] then None
          else
            let total = List.fold_left (fun a s -> a + Trace.duration s) 0 spans in
            Some (float_of_int total /. float_of_int ops /. scale)
        in
        measured
          (pool_delta !pool0 (Pool.stats ()) ~ops
          @ [
              ("lift.annotated_loops", per annotated_loops);
              ("lift.configs_verified", per configs);
              ("tune.variants_verified", per variants_verified);
            ])
        @ [
            ("fortran.parse_us", per_pass ~scale:us "fortran.parse");
            ("lift.autopar_ms", per_pass ~scale:ms "lift.autopar");
            ("lift.verify_ms", per_pass ~scale:ms "lift.verify");
            ("lift.kernel_ms", per_pass ~scale:ms "lift.kernel");
            ("tune.search_ms", per_pass ~scale:ms "tune.search");
            ("trace.unattributed_share", unattributed_share ());
          ]);
    rss_mb = self_rss;
    stop = ignore;
  }

(* --- metrics and the main program --------------------------------------------- *)

let workloads =
  [
    ("sarb_entropy", sarb_entropy);
    ("fun3d_jacobian", fun3d_jacobian);
    ("serve_churn", serve_churn);
    ("autopar_tune", autopar_tune);
  ]

(* Every per-layer metric, with its unit, in the order printed.  A
   workload that does not exercise a layer reports 0 for its metrics
   and lists them under "not_measured". *)
let per_layer =
  [
    ("pool.regions_per_op", "count"); ("pool.inline_per_op", "count");
    ("pool.tasks_per_op", "count"); ("pool.region_us", "us");
    ("pool.idle_share", "ratio"); ("pool.entry_us.static", "us");
    ("pool.entry_us.dynamic", "us");
    ("interp.make_state_us", "us"); ("interp.exec_ms", "ms");
    ("interp.allocations_per_op", "count"); ("bytecode.bail_share", "ratio");
    ("bytecode.bail_sites", "count");
    ("builder.gpi_us", "us"); ("analysis.autopar_us", "us");
    ("codegen.emit_us", "us"); ("codegen.source_bytes", "bytes");
    ("fortran.parse_us", "us");
    ("progcache.hit_share", "ratio"); ("progcache.misses", "count");
    ("progcache.evictions", "count"); ("progcache.compile_us", "us");
    ("listener.overhead_us", "us"); ("listener.server_exec_ms", "ms");
    ("listener.shed", "count");
    ("lift.autopar_ms", "ms"); ("lift.verify_ms", "ms"); ("lift.kernel_ms", "ms");
    ("lift.annotated_loops", "count"); ("lift.configs_verified", "count");
    ("tune.search_ms", "ms"); ("tune.variants_verified", "count");
    ("sarb.serial_ref_ms", "ms"); ("sarb.speedup_vs_serial", "x");
    ("fun3d.serial_ref_ms", "ms"); ("fun3d.speedup_vs_serial", "x");
    ("trace.unattributed_share", "ratio");
  ]

type e2e = {
  setup_s : float;
  ops_per_s : float;
  p50 : float;
  p90 : float;
  beyond_p90 : int;  (* samples above the p90 *)
  chunks : int;
  chunk_ops : int;
  by_chunk : (float * float * float) list;  (* ops_per_s, p50, p90 of each chunk *)
  rss : float;
}

(* A run is cut into chunks of consecutive operations, each with its
   own rate, p50 and p90, and each of the run's figures is the median
   of that figure over the chunks.  A host stall or steal burst then
   moves the chunks it hits, not the run's figure: taken over a whole
   run, a few such chunks set the p90 and the mean op time (so
   ops_per_s), and those spread past 25 % between runs.  A workload
   with rounds has one chunk per round, so every chunk holds the same
   mix; the others have [chunks] equal chunks, the last also taking
   the operations left over. *)
let chunks = 50

let end_to_end ~setup_s ~rss ~round (t : tally) =
  let spans = Array.of_list (List.rev t.spans) in
  let n = Array.length spans in
  let per = if round > 1 then round else max 1 (n / chunks) in
  let k = if round > 1 then max 1 (n / round) else max 1 (min chunks (n / per)) in
  let chunk i = Array.sub spans (i * per) (if i = k - 1 then n - (i * per) else per) in
  let stats =
    List.init k (fun i ->
        let c = chunk i in
        let m = Array.length c in
        let lat = Array.map (fun (t0, t1) -> ms_of_ns (t1 - t0)) c in
        Array.sort compare lat;
        let wall = float_of_int (snd c.(m - 1) - fst c.(0)) /. 1e9 in
        (float_of_int m /. wall, percentile lat 0.5, percentile lat 0.9))
  in
  let med f = median (List.map f stats) in
  let p90 = med (fun (_, _, p) -> p) in
  {
    setup_s;
    ops_per_s = med (fun (r, _, _) -> r);
    p50 = med (fun (_, p, _) -> p);
    p90;
    beyond_p90 =
      Array.fold_left (fun a (t0, t1) -> if ms_of_ns (t1 - t0) > p90 then a + 1 else a) 0 spans;
    chunks = k;
    chunk_ops = per;
    by_chunk = stats;
    rss;
  }

let e2e_metrics e =
  [
    ("setup_s", e.setup_s, "s");
    ("ops_per_s", e.ops_per_s, "1/s");
    ("op_p50_ms", e.p50, "ms");
    ("op_p90_ms", e.p90, "ms");
    ("peak_rss_mb", e.rss, "MB");
  ]

(* Shortest decimal that reads back as [x]. *)
let num x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else
    let s = Printf.sprintf "%.15g" x in
    if float_of_string s = x then s else Printf.sprintf "%.17g" x

let metrics_json ms =
  "{"
  ^ String.concat ","
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf "\"%s\":{\"value\":%s,\"unit\":\"%s\"}" name (num v) unit)
         ms)
  ^ "}"

let print_summary ~traced ~setups e (t : tally) =
  let n = t.attempted in
  Printf.printf "%s end-to-end%s (seed %d, %d s, nproc %d)\n" !workload
    (if traced then " with tracing on" else "") !seed !seconds nproc;
  Printf.printf "  %-12s %12.4f s   median of %d cold set-ups\n" "setup_s" e.setup_s setups;
  Printf.printf "  %-12s %12.3f 1/s   median of %d chunks of %d ops\n" "ops_per_s" e.ops_per_s
    e.chunks e.chunk_ops;
  Printf.printf "  %-12s %12.4f ms  n=%d, median of the chunks' p50\n" "op_p50_ms" e.p50 n;
  Printf.printf "  %-12s %12.4f ms  n=%d, %d beyond, median of the chunks' p90%s\n"
    "op_p90_ms"
    e.p90 n e.beyond_p90
    (if n < 100 then " (fewer than 100 operations: indicative only)" else "");
  Printf.printf "  %-12s %12.4f     %d of %d (%d wrong)\n" "fail_share"
    (float_of_int t.failed /. float_of_int (max 1 n)) t.failed n t.wrong;
  Printf.printf "  %-12s %12.2f MB\n" "peak_rss_mb" e.rss;
  List.iter (fun m -> Printf.printf "  %s\n" m) (List.rev t.notes)

let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1"

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed the inputs are drawn from");
      ("--seconds", Arg.Set_int seconds, "S length of the measured loop");
      ("--trace", Arg.Set_int trace, "0|1 record spans and report per-layer metrics");
      ("--commit", Arg.Set_string commit, "ID commit being measured");
      ("--source-digest", Arg.Set_string source_digest, "MD5 digest of the sources");
      ("--spawn-ns", Arg.Set_int spawn_ns, "NS monotonic time at which this process was spawned");
      ("--setup-only", Arg.Set setup_only, " set up once, print the set-up time in ns, exit");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let setup =
    match List.assoc_opt !workload workloads with
    | Some s -> s
    | None ->
      die "unknown workload %S (one of: %s)" !workload
        (String.concat ", " (List.map fst workloads))
  in
  if !seconds < 1 then die "--seconds must be at least 1";
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  let traced = !trace = 1 in
  (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Trace.enabled := traced && not !setup_only;
  (* the same seed gives the same inputs in every set-up *)
  let rng () = Random.State.make [| !seed |] in
  let started = if !spawn_ns > 0 then !spawn_ns else start_ns in
  if !setup_only then begin
    let ctx = setup (rng ()) in
    let ready = now_ns () in
    ctx.stop ();
    Printf.printf "%d\n%!" (ready - started);
    exit 0
  end;
  (* this process's own set-up, from its start to the point the first
     operation can be timed, is the first cold set-up ... *)
  let ctx = span "setup" (fun () -> setup (rng ())) in
  let own_setup = float_of_int (now_ns () - started) /. 1e9 in
  (* ... and fresh processes that set up and exit give the others *)
  let cold_setup () =
    let out, w = Unix.pipe ~cloexec:true () in
    let t0 = now_ns () in
    let argv =
      [| Sys.executable_name; "--workload"; !workload; "--seed"; string_of_int !seed;
         "--setup-only"; "--spawn-ns"; string_of_int t0 |]
    in
    let pid = Unix.create_process Sys.executable_name argv Unix.stdin w Unix.stderr in
    Unix.close w;
    children := pid :: !children;
    let ic = Unix.in_channel_of_descr out in
    let line = In_channel.input_line ic in
    close_in ic;
    waitpid_retry pid;
    children := List.filter (( <> ) pid) !children;
    match Option.bind line int_of_string_opt with
    | Some ns -> float_of_int ns /. 1e9
    | None -> die "a cold set-up of %s failed" !workload
  in
  let rec more times total =
    if List.length times >= setup_reps && total >= setup_min_s then times
    else
      let s = cold_setup () in
      more (s :: times) (total +. s)
  in
  let setup_times = List.rev (more [ own_setup ] own_setup) in
  let canary_before = canary_ms () in
  (* every run measures from the same heap state *)
  Gc.compact ();
  let steal0, total0 = cpu_ticks () in
  let t = ctx.measure ~seconds:!seconds in
  let steal1, total1 = cpu_ticks () in
  let canary_after = canary_ms () in
  let e = end_to_end ~setup_s:(median setup_times) ~rss:(ctx.rss_mb ()) ~round:ctx.round t in
  let layers =
    if not traced then []
    else
      List.filter_map
        (fun (name, v) ->
          if not (List.mem_assoc name per_layer) then die "unlisted per-layer metric %s" name;
          Option.map (fun v -> (name, v)) v)
        (ctx.layers t)
  in
  ctx.stop ();
  print_summary ~traced ~setups:(List.length setup_times) e t;
  let not_measured =
    List.filter_map
      (fun (name, _) -> if List.mem_assoc name layers then None else Some name)
      per_layer
  in
  if traced then begin
    Printf.printf "%s per-layer metrics\n" !workload;
    List.iter
      (fun (name, unit) ->
        match List.assoc_opt name layers with
        | Some v -> Printf.printf "  %-28s %14.4f %s\n" name v unit
        | None -> ())
      per_layer;
    Printf.printf "self time by span (ms, all spans of the run)\n";
    List.iter
      (fun (s : Trace.summary) ->
        Printf.printf "  %-28s %8d spans %12.3f total %12.3f self\n" s.sm_name s.sm_count
          (float_of_int s.sm_total_ns /. 1e6)
          (float_of_int s.sm_self_ns /. 1e6))
      (Trace.summary ());
    let path = Filename.concat out_dir (Printf.sprintf "trace-%s-%d.json" !workload !seed) in
    Trace.write_chrome path;
    Printf.printf "trace written to %s\n" path
  end;
  Printf.printf
    "{\"run\":{\"workload\":\"%s\",\"seed\":%d,\"seconds\":%d,\"trace\":%d,\"nproc\":%d,\
     \"ocaml\":\"%s\",\"commit\":\"%s\",\"source_digest\":\"%s\",\"setup_runs_s\":[%s],\
     \"samples\":%d,\"chunks\":%d,\"chunk_ops\":%d,\"by_chunk\":%s,\"beyond_p90\":%d,\"fail_share\":%s,\"wrong\":%d,\
     \"host\":{\"canary_ms\":[%s,%s],\"steal_share\":%s},\"params\":{%s}%s}}\n"
    !workload !seed !seconds !trace nproc Sys.ocaml_version (json_escape !commit)
    (json_escape !source_digest)
    (String.concat "," (List.map num setup_times))
    t.attempted e.chunks e.chunk_ops
    (json_array (fun (r, p50, p90) -> Printf.sprintf "[%s,%s,%s]" (num r) (num p50) (num p90))
       (Array.of_list e.by_chunk))
    e.beyond_p90
    (num (float_of_int t.failed /. float_of_int (max 1 t.attempted)))
    t.wrong (num canary_before) (num canary_after)
    (num
       (if total1 > total0 then float_of_int (steal1 - steal0) /. float_of_int (total1 - total0)
        else 0.0))
    (String.concat "," (List.map (fun (k, v) -> Printf.sprintf "\"%s\":%s" k v) ctx.params))
    (if traced then
       Printf.sprintf ",\"traced_end_to_end\":%s,\"not_measured\":%s"
         (metrics_json (e2e_metrics e)) (json_array (fun x -> "\"" ^ x ^ "\"") (Array.of_list not_measured))
     else "");
  let metrics =
    if traced then
      List.map
        (fun (name, unit) -> (name, Option.value ~default:0.0 (List.assoc_opt name layers), unit))
        per_layer
    else e2e_metrics e
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":%s}\n%!"
    (t.wrong = 0) t.attempted t.failed (metrics_json metrics)
