(* Differential tests of the two execution engines: every program is
   run twice — bytecode VM (the default) and the tree-walking
   interpreter ([--no-bytecode]) — and the observable results must be
   bit-identical: function values compared on their IEEE-754 bit
   patterns, arrays cell by cell, PRINT output and runtime-error
   messages as exact strings.  Coverage spans the shipped example
   scripts, the SARB and FUN3D case-study workloads, all four loop
   schedules, concurrent batch serving and fault-injection plans. *)

open Glaf_fortran
open Glaf_runtime
open Glaf_interp
open Glaf_workloads
open Glaf_optimizer
module Serve = Glaf_service.Serve

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let scripts = "../examples/scripts"

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* Bit-exact value equality: reals compare on their bit patterns, so
   +0.0 vs -0.0 or any ULP drift between the engines is a failure. *)
let value_eq a b =
  match (a, b) with
  | Value.Real x, Value.Real y -> Int64.bits_of_float x = Int64.bits_of_float y
  | a, b -> a = b

let value_opt_eq a b =
  match (a, b) with
  | Some a, Some b -> value_eq a b
  | None, None -> true
  | _ -> false

let pp_value_opt = function
  | Some v -> Value.to_string v
  | None -> "(none)"

(* --- one call, both engines --------------------------------------------- *)

type run_out = {
  r_value : Value.t option option;  (** [None] when the call raised *)
  r_output : string;
  r_error : string option;
}

let run_engine ~bytecode ?(threads = 1) ?sched cu fname args =
  let buf = Buffer.create 64 in
  let st = Interp.make_state ~printer:(Buffer.add_string buf) cu in
  Interp.set_threads st threads;
  (match sched with Some s -> Interp.set_schedule st s | None -> ());
  Interp.set_bytecode st bytecode;
  let finish value error =
    { r_value = value; r_output = Buffer.contents buf; r_error = error }
  in
  match Interp.call st fname args with
  | v -> finish (Some v) None
  | exception Interp.Fortran_error m -> finish None (Some ("fortran: " ^ m))
  | exception Value.Runtime_error m -> finish None (Some ("value: " ^ m))
  | exception Farray.Bounds_error m -> finish None (Some ("bounds: " ^ m))
  | exception Faultinject.Injected m -> finish None (Some ("inject: " ^ m))

let assert_same name ?threads ?sched cu fname args =
  let a = run_engine ~bytecode:true ?threads ?sched cu fname args in
  let b = run_engine ~bytecode:false ?threads ?sched cu fname args in
  check_string (name ^ ": printed output") b.r_output a.r_output;
  (match (a.r_error, b.r_error) with
  | None, None -> ()
  | Some ea, Some eb -> check_string (name ^ ": error message") eb ea
  | Some e, None ->
    Alcotest.fail (name ^ ": only bytecode raised: " ^ e)
  | None, Some e ->
    Alcotest.fail (name ^ ": only tree-walk raised: " ^ e));
  match (a.r_value, b.r_value) with
  | Some va, Some vb ->
    if not (value_opt_eq va vb) then
      Alcotest.fail
        (Printf.sprintf "%s: results differ: bytecode=%s tree-walk=%s" name
           (pp_value_opt va) (pp_value_opt vb))
  | None, None -> ()
  | _ -> Alcotest.fail (name ^ ": one engine raised, the other returned")

let all_scheds =
  [
    ("default", None);
    ("static", Some Sched.Static);
    ("chunk:8", Some (Sched.Static_chunked 8));
    ("dynamic", Some (Sched.Dynamic 1));
    ("guided", Some (Sched.Guided 2));
  ]

(* --- construct battery --------------------------------------------------- *)

(* One function exercising every construct the bytecode compiler
   covers: negative-step and EXIT/CYCLE loops, DO WHILE, short-circuit
   logic, a COLLAPSE(2) array-write nest, an integer reduction plus a
   CRITICAL counter (both exact under any schedule and thread count),
   PRINT, and intrinsic calls. *)
let battery_src =
  {|
module diffmod
  implicit none
  real*8 :: grid2(24, 17)
  real*8 :: vec(400)
  integer :: hits
end module diffmod

real*8 function battery(n, t)
  use diffmod
  implicit none
  integer :: n, t
  integer :: i, j, k, steps
  real*8 :: acc, x
  do i = 400, 1, -3
    vec(i) = i * 0.125d0
  end do
  do i = 1, n
    if (mod(i, 7) == 0) cycle
    if (i > 350) exit
    vec(i) = vec(i) + 1.0d0 / (1.0d0 + i)
  end do
  steps = 0
  x = 1.0d0
  do while (x < 1000.0d0 .and. steps < 64)
    x = x * 1.7d0
    steps = steps + 1
  end do
!$omp parallel do private(i, j) collapse(2) num_threads(t)
  do i = 1, 24
    do j = 1, 17
      grid2(i, j) = exp(i * 0.01d0) * (j + 0.5d0) + i * 1000.0d0
    end do
  end do
!$omp end parallel do
  hits = 0
  k = 0
!$omp parallel do private(i) reduction(+:k) num_threads(t)
  do i = 1, n
    k = k + mod(i * i, 13)
!$omp critical
    hits = hits + 1
!$omp end critical
  end do
!$omp end parallel do
  acc = 0.0d0
  do i = 1, 400
    acc = acc + vec(i)
  end do
  do i = 1, 24
    do j = 1, 17
      acc = acc + grid2(i, j) * 1.0d-3
    end do
  end do
  print *, 'battery', steps, hits
  battery = acc + x + steps + k + hits
end function battery
|}

let test_battery_diff () =
  let cu = Parser.parse_string battery_src in
  List.iter
    (fun (sname, sched) ->
      List.iter
        (fun threads ->
          assert_same
            (Printf.sprintf "battery %s t=%d" sname threads)
            ~threads ?sched cu "battery"
            [ Ast.Int_lit 397; Ast.Int_lit threads ])
        [ 1; 4 ])
    all_scheds

(* Error paths must surface the same message through either engine. *)
let test_error_diff () =
  let cu =
    Parser.parse_string
      {|
real*8 function oob(i)
  integer :: i
  real*8 :: a(10)
  a(3) = 1.0d0
  oob = a(i)
end function oob

integer function zdiv(d)
  integer :: d
  zdiv = 7 / d
end function zdiv
|}
  in
  assert_same "oob high" cu "oob" [ Ast.Int_lit 500 ];
  assert_same "oob low" cu "oob" [ Ast.Int_lit 0 ];
  assert_same "oob ok" cu "oob" [ Ast.Int_lit 3 ];
  assert_same "zdiv" cu "zdiv" [ Ast.Int_lit 0 ]

(* --- user-call battery ---------------------------------------------------- *)

(* Every flavor of compiled call in one program: inlined branch-free
   and branching leaves, a marshalled call at the inline size boundary,
   by-reference scalar and array-element mutation through a subroutine,
   subroutine recursion (tree-walk fallback at the call site), and a
   mixed chain where an allocating subroutine falls back while the
   loops and callees inside it still run compiled. *)
let calls_src =
  {|
module callmod
  implicit none
  real*8 :: stash(64)
end module callmod

real*8 function scale2(a, b)
  implicit none
  real*8 :: a, b
  scale2 = a * 2.0d0 + b * 0.5d0
end function scale2

real*8 function clampv(x, lim)
  implicit none
  real*8 :: x, lim
  if (x > lim) then
    clampv = lim + (x - lim) * 0.25d0
  else
    clampv = x
  end if
end function clampv

real*8 function leaf8(x)
  implicit none
  real*8 :: x, t
  t = x + 1.0d0
  t = t * 1.5d0
  t = t - 0.25d0
  t = t * t
  t = t + x
  t = t * 0.5d0
  t = t + 2.0d0
  leaf8 = t
end function leaf8

real*8 function leaf9(x)
  implicit none
  real*8 :: x, t
  t = x + 1.0d0
  t = t * 1.5d0
  t = t - 0.25d0
  t = t * t
  t = t + x
  t = t * 0.5d0
  t = t + 2.0d0
  t = t - 0.125d0
  leaf9 = t
end function leaf9

subroutine bump(v, arr, i)
  use callmod
  implicit none
  real*8 :: v
  real*8 :: arr(64)
  integer :: i
  v = v + 1.25d0
  arr(i) = arr(i) + v
  stash(i) = v
end subroutine bump

subroutine rsum(n, acc)
  implicit none
  integer :: n
  real*8 :: acc
  if (n > 0) then
    acc = acc + n * 1.0d0
    call rsum(n - 1, acc)
  end if
end subroutine rsum

subroutine mixed(n, outv)
  implicit none
  integer :: n, i
  real*8 :: outv
  real*8, allocatable :: tmp(:)
  allocate(tmp(n))
  do i = 1, n
    tmp(i) = leaf9(i * 0.3d0)
  end do
  outv = 0.0d0
  do i = 1, n
    outv = outv + tmp(i)
  end do
  deallocate(tmp)
end subroutine mixed

real*8 function drive_calls(n, t)
  use callmod
  implicit none
  integer :: n, t
  integer :: i
  real*8 :: acc, v, av, bv, mx
  real*8 :: arr(64)
  do i = 1, 64
    arr(i) = i * 0.75d0
    stash(i) = 0.0d0
  end do
  v = 0.5d0
  do i = 1, 10
    call bump(v, arr, i)
  end do
  acc = 0.0d0
!$omp parallel do private(i, av, bv) reduction(+:acc) num_threads(t)
  do i = 1, n
    av = arr(mod(i, 64) + 1)
    bv = clampv(i * 0.1d0, 3.0d0)
    acc = acc + scale2(av, bv)
    acc = acc + scale2(arr(mod(i + 7, 64) + 1), 1.0d0)
  end do
!$omp end parallel do
  call rsum(12, acc)
  call mixed(20, mx)
  acc = acc + leaf9(v) + mx
  do i = 1, 4
    av = v + i * 0.5d0
    acc = acc + leaf8(av)
  end do
  do i = 1, 64
    acc = acc + stash(i)
  end do
  print *, 'calls', n
  drive_calls = acc
end function drive_calls
|}

let test_calls_diff () =
  let cu = Parser.parse_string calls_src in
  (* float +-reduction: deterministic per engine at one thread under
     every schedule, at any thread count under static *)
  List.iter
    (fun (sname, sched) ->
      assert_same ("calls " ^ sname) ~threads:1 ?sched cu "drive_calls"
        [ Ast.Int_lit 300; Ast.Int_lit 1 ])
    all_scheds;
  List.iter
    (fun threads ->
      assert_same
        (Printf.sprintf "calls static t=%d" threads)
        ~threads ~sched:Sched.Static cu "drive_calls"
        [ Ast.Int_lit 300; Ast.Int_lit threads ])
    [ 2; 4 ]

(* Under an installed fault plan the call-bearing program must fail (or
   merely slow down) identically through either engine. *)
let test_calls_inject_diff () =
  let cu = Parser.parse_string calls_src in
  let with_plan spec f =
    let plan =
      match Faultinject.parse_plan spec with
      | Ok p -> p
      | Error m -> Alcotest.fail ("bad plan: " ^ m)
    in
    Faultinject.set_plan plan;
    Fun.protect ~finally:(fun () -> Faultinject.clear ()) f
  in
  let run bytecode spec =
    with_plan spec (fun () ->
        run_engine ~bytecode ~threads:2 ~sched:Sched.Static cu "drive_calls"
          [ Ast.Int_lit 300; Ast.Int_lit 2 ])
  in
  (* fail-region:1 kills the one parallel region in drive_calls *)
  let a = run true "fail-region:1" and b = run false "fail-region:1" in
  check_bool "inject failed the call" true (a.r_error <> None);
  (match (a.r_error, b.r_error) with
  | Some ea, Some eb -> check_string "inject error identical" eb ea
  | _ -> Alcotest.fail "fail-region outcome differs between engines");
  (* delay-chunk:0 slows every region without changing results *)
  let a = run true "delay-chunk:0:1" and b = run false "delay-chunk:0:1" in
  check_string "delayed output identical" b.r_output a.r_output;
  if not (match (a.r_value, b.r_value) with
          | Some va, Some vb -> value_opt_eq va vb
          | _ -> false)
  then Alcotest.fail "delay-chunk values differ between engines"

(* White-box coverage: which call sites compiled, inlined, or fell
   back.  Leaves at or under the size cap leave no per-sub site at all
   (no frame is ever built); the boundary +1 function is a marshalled
   compiled call; recursion and ALLOCATE report bails with a reason. *)
let test_calls_stats () =
  let cu = Parser.parse_string calls_src in
  Interp.reset_bytecode_stats ();
  let st = Interp.make_state ~printer:ignore cu in
  ignore (Interp.call st "drive_calls" [ Ast.Int_lit 300; Ast.Int_lit 1 ]);
  let rows = Interp.bytecode_stats_for st in
  let find lbl = List.filter (fun r -> r.Interp.r_label = lbl) rows in
  let runs lbl =
    List.fold_left (fun a r -> a + r.Interp.r_runs) 0 (find lbl)
  and bails lbl =
    List.fold_left (fun a r -> a + r.Interp.r_bails) 0 (find lbl)
  in
  (* inlined leaves never become call frames *)
  check_bool "scale2 inlined or marshalled, never bailed" true
    (bails "sub scale2" = 0);
  check_int "leaf8 fully inlined: no site" 0 (List.length (find "sub leaf8"));
  check_bool "leaf9 (one past the cap) ran as compiled frames" true
    (runs "sub leaf9" > 0);
  check_int "leaf9 never bailed" 0 (bails "sub leaf9");
  check_bool "bump ran compiled with by-ref args" true (runs "sub bump" > 0);
  check_int "bump never bailed" 0 (bails "sub bump");
  (* recursion: every activation falls back to the tree-walker *)
  check_bool "rsum bailed" true (bails "sub rsum" > 0);
  check_bool "rsum bail has a reason" true
    (List.exists (fun r -> r.Interp.r_reason <> None) (find "sub rsum"));
  (* the allocating sub bails, but the loops inside it still compile *)
  check_bool "mixed bailed (allocate)" true (bails "sub mixed" > 0)

(* The acceptance gate of this PR: the case-study exchange subprograms
   run fully compiled — zero bails — and their factored-out leaf
   helpers vanish into their callers. *)
let test_workload_bytecode_coverage () =
  Interp.reset_bytecode_stats ();
  ignore (Sarb.run ~threads:1 ~bytecode:true Sarb.Glaf_serial);
  ignore (Fun3d.run ~threads:1 ~ncell:40 ~bytecode:true
            (Fun3d.Glaf Fun3d_glaf.serial_options));
  let rows = Interp.bytecode_stats () in
  let find lbl = List.filter (fun r -> r.Interp.r_label = lbl) rows in
  List.iter
    (fun lbl ->
      let rs = find ("sub " ^ lbl) in
      if rs = [] then Alcotest.fail ("no bytecode site for " ^ lbl);
      List.iter
        (fun r ->
          check_bool (lbl ^ " ran compiled") true (r.Interp.r_runs > 0);
          check_int (lbl ^ " zero bails") 0 r.Interp.r_bails)
        rs)
    [ "ent_exchange"; "lw_exchange_up"; "lw_exchange_dn" ];
  check_int "ent_contrib inlined away" 0 (List.length (find "sub ent_contrib"));
  check_int "combine_flux inlined away" 0
    (List.length (find "sub combine_flux"))

(* --- example scripts ----------------------------------------------------- *)

(* The script functions take array parameters the calls-file syntax
   cannot express, so each gets a Fortran driver appended to the
   generated source that fills the arrays and forwards the call. *)

let script_unit ?(prelude = "") name driver =
  let compiled = Serve.compile (read_file (Filename.concat scripts name)) in
  Parser.parse_string (prelude ^ compiled.Serve.co_source ^ driver)

let test_saxpy_diff () =
  let cu =
    script_unit "saxpy.gpi"
      {|
real*8 function drive_axpy(n)
  use m
  implicit none
  integer :: n
  integer :: i
  real*8 :: x(n)
  real*8 :: y(n)
  do i = 1, n
    x(i) = i * 0.5d0
    y(i) = (n - i) * 0.25d0
  end do
  drive_axpy = axpy(n, 2.0d0, x, y) + y(1) + y(n)
end function drive_axpy
|}
  in
  (* axpy carries a float +-reduction: deterministic per engine at one
     thread under every schedule, and at any thread count under the
     static schedules (fixed chunk->thread map, fixed combine order). *)
  List.iter
    (fun (sname, sched) ->
      assert_same ("saxpy " ^ sname) ~threads:1 ?sched cu "drive_axpy"
        [ Ast.Int_lit 1000 ])
    all_scheds;
  List.iter
    (fun threads ->
      assert_same
        (Printf.sprintf "saxpy static t=%d" threads)
        ~threads ~sched:Sched.Static cu "drive_axpy" [ Ast.Int_lit 1000 ])
    [ 2; 4 ]

let test_point_charge_diff () =
  let cu =
    script_unit "point_charge.gpi"
      {|
real*8 function drive_charge(n)
  use module1
  implicit none
  integer :: n
  integer :: i
  real*8 :: charge(n)
  real*8 :: xs(n)
  do i = 1, n
    charge(i) = (mod(i, 5) - 2) * 1.0d-9
    xs(i) = i * 0.01d0
  end do
  drive_charge = calc_point_charge(n, charge, xs, 1.2345d0)
end function drive_charge
|}
  in
  List.iter
    (fun (sname, sched) ->
      assert_same ("point_charge " ^ sname) ~threads:1 ?sched cu "drive_charge"
        [ Ast.Int_lit 500 ])
    all_scheds;
  assert_same "point_charge static t=4" ~threads:4 ~sched:Sched.Static cu
    "drive_charge" [ Ast.Int_lit 500 ]

(* legacy_radiation integrates against pre-existing modules and a
   COMMON block; the test supplies minimal versions of both, then
   compares the module-resident result array cell by cell. *)
let test_legacy_radiation_diff () =
  let cu =
    script_unit
      ~prelude:
        {|
module fuinput
  implicit none
  integer :: nv1
  real*8 :: pt(61)
end module fuinput

module fuoutput
  implicit none
  type :: fu_out_t
    real*8 :: fwin(61)
  end type fu_out_t
  type(fu_out_t) :: fo
end module fuoutput
|}
      "legacy_radiation.gpi"
      {|
subroutine drive_window(scale)
  use fuinput
  use patch
  implicit none
  real*8 :: scale
  real*8 :: wnwin
  integer :: k
  common /entcon/ wnwin
  wnwin = scale
  nv1 = 60
  do k = 1, 61
    pt(k) = 200.0d0 + k * 1.5d0
  end do
  call window_flux()
end subroutine drive_window
|}
  in
  let fwin ~bytecode ~threads sched =
    let st = Interp.make_state ~printer:ignore cu in
    Interp.set_threads st threads;
    (match sched with Some s -> Interp.set_schedule st s | None -> ());
    Interp.set_bytecode st bytecode;
    ignore (Interp.call st "drive_window" [ Ast.Real_lit (0.731, true) ]);
    Interp.module_struct_array st ~module_name:"fuoutput" ~var:"fo"
      ~field:"fwin"
  in
  List.iter
    (fun (sname, sched) ->
      let a = fwin ~bytecode:true ~threads:4 sched in
      let b = fwin ~bytecode:false ~threads:4 sched in
      check_bool
        ("window_flux fwin identical, " ^ sname)
        true
        (Farray.equal_content a b);
      (* the driver really did something *)
      check_bool ("window_flux nonzero, " ^ sname) true (Farray.rms a > 0.0))
    all_scheds

(* --- batch serving ------------------------------------------------------- *)

let quad_compiled () = Serve.compile (read_file (scripts ^ "/quad_sweep.gpi"))
let quad_calls () = Serve.parse_calls (read_file (scripts ^ "/quad_sweep.calls"))

(* Compare two served batches outcome by outcome: same per-call
   values (bit-exact), same captured PRINT output, same fault
   classification for failed calls.  Timing fields are ignored. *)
let assert_batches_same name (a : Serve.batch) (b : Serve.batch) =
  check_int (name ^ ": ok count") b.Serve.b_ok a.Serve.b_ok;
  check_int (name ^ ": failed count") b.Serve.b_failed a.Serve.b_failed;
  check_int (name ^ ": result count")
    (List.length b.Serve.b_results)
    (List.length a.Serve.b_results);
  List.iter2
    (fun (ca, ra) (cb, rb) ->
      let where =
        Printf.sprintf "%s: line %d %s" name ca.Serve.cl_line ca.Serve.cl_name
      in
      check_int (where ^ ": same call") cb.Serve.cl_line ca.Serve.cl_line;
      match (ra, rb) with
      | Ok oa, Ok ob ->
        check_bool
          (where ^ ": value bit-identical")
          true
          (value_opt_eq oa.Serve.oc_value ob.Serve.oc_value);
        check_string (where ^ ": output") ob.Serve.oc_output oa.Serve.oc_output
      | Error fa, Error fb ->
        check_string (where ^ ": fault") (Fault.to_string fb)
          (Fault.to_string fa)
      | Ok _, Error f ->
        Alcotest.fail (where ^ ": only tree-walk failed: " ^ Fault.to_string f)
      | Error f, Ok _ ->
        Alcotest.fail (where ^ ": only bytecode failed: " ^ Fault.to_string f))
    a.Serve.b_results b.Serve.b_results

let test_serve_schedules_diff () =
  let compiled = quad_compiled () and calls = quad_calls () in
  List.iter
    (fun (sname, sched) ->
      let run bytecode =
        Serve.run_calls ~threads:1 ?sched ~bytecode compiled calls
      in
      assert_batches_same ("serve " ^ sname) (run true) (run false))
    all_scheds

let test_serve_concurrent_diff () =
  let compiled = quad_compiled () and calls = quad_calls () in
  let run bytecode =
    Serve.run_calls ~concurrency:3 ~threads:1 ~bytecode compiled calls
  in
  assert_batches_same "serve concurrency=3" (run true) (run false)

(* Under an installed fault plan both engines must fail the same call
   with the same classification: region numbering is identical because
   chunk dispatch is engine-independent. *)
let test_serve_inject_diff () =
  let compiled = quad_compiled () and calls = quad_calls () in
  let plan =
    match Faultinject.parse_plan "fail-region:2,delay-chunk:1:1" with
    | Ok p -> p
    | Error m -> Alcotest.fail ("bad plan: " ^ m)
  in
  let run bytecode =
    Faultinject.set_plan plan;
    Fun.protect
      ~finally:(fun () -> Faultinject.clear ())
      (fun () -> Serve.run_calls ~threads:1 ~bytecode compiled calls)
  in
  let a = run true and b = run false in
  check_int "one injected failure" 1 a.Serve.b_failed;
  assert_batches_same "serve inject" a b

(* --- case-study workloads ------------------------------------------------ *)

let bits = Int64.bits_of_float

let assert_sarb_same name (a : Sarb.run_result) (b : Sarb.run_result) =
  check_bool (name ^ ": checksum bit-identical") true
    (bits a.Sarb.checksum = bits b.Sarb.checksum);
  check_bool (name ^ ": toa bit-identical") true
    (bits a.Sarb.toa_lw = bits b.Sarb.toa_lw
    && bits a.Sarb.toa_sw = bits b.Sarb.toa_sw);
  List.iter
    (fun (fname, fa, fb) ->
      check_bool
        (Printf.sprintf "%s: %s identical" name fname)
        true (Farray.equal_content fa fb))
    [
      ("fuir", a.Sarb.fuir, b.Sarb.fuir);
      ("fdir", a.Sarb.fdir, b.Sarb.fdir);
      ("fds", a.Sarb.fds, b.Sarb.fds);
      ("sen_lw", a.Sarb.sen_lw, b.Sarb.sen_lw);
    ]

let test_sarb_diff () =
  List.iter
    (fun (label, threads, v) ->
      assert_sarb_same label
        (Sarb.run ~threads ~bytecode:true v)
        (Sarb.run ~threads ~bytecode:false v))
    [
      ("sarb original serial", 1, Sarb.Original_serial);
      ("sarb glaf serial", 1, Sarb.Glaf_serial);
      ("sarb glaf parallel v0 t=3", 3, Sarb.Glaf_parallel Directive_policy.V0);
      ("sarb glaf parallel v2 t=3", 3, Sarb.Glaf_parallel Directive_policy.V2);
    ]

let test_fun3d_diff () =
  List.iter
    (fun (label, v) ->
      let a = Fun3d.run ~threads:1 ~ncell:60 ~bytecode:true v in
      let b = Fun3d.run ~threads:1 ~ncell:60 ~bytecode:false v in
      check_bool (label ^ ": rms bit-identical") true
        (bits a.Fun3d.rms = bits b.Fun3d.rms);
      check_bool (label ^ ": rms finite") true (Float.is_finite a.Fun3d.rms))
    [
      ("fun3d original", Fun3d.Original_serial);
      ("fun3d glaf serial", Fun3d.Glaf Fun3d_glaf.serial_options);
      ("fun3d glaf best", Fun3d.Glaf Fun3d_glaf.best_options);
    ]

(* --- per-unit contexts ----------------------------------------------------- *)

(* Entries of the tables that hold compiled programs. *)
let programs u =
  let bodies, subs, _ = Bytecode.table_sizes u in
  bodies + subs

(* Two fresh states on one unit resolve the same context: the second
   runs the programs the first compiled, compiling nothing. *)
let test_states_share_programs () =
  let cu = Parser.parse_string calls_src in
  let run () =
    let st = Interp.make_state ~printer:ignore cu in
    let v = Interp.call st "drive_calls" [ Ast.Int_lit 40; Ast.Int_lit 1 ] in
    (Interp.bytecode_unit st, v)
  in
  let u1, v1 = run () in
  let compiled = Bytecode.compiles u1 in
  check_bool "first state compiled something" true (compiled > 0);
  check_int "one compile per cached program" (programs u1) compiled;
  let u2, v2 = run () in
  check_bool "same context" true (u1 == u2);
  check_int "second state compiled nothing" compiled (Bytecode.compiles u2);
  check_bool "same result" true (value_opt_eq v1 v2)

(* Two units that differ in one literal inside a loop body (the shape
   of the benchmark's served variants) each get their own programs. *)
let test_literal_variants () =
  let text = read_file (scripts ^ "/quad_sweep.gpi") in
  let variant lit =
    let needle = "acc + 4.0 /" in
    let i =
      let rec find i =
        if String.sub text i (String.length needle) = needle then i
        else find (i + 1)
      in
      find 0
    in
    Serve.compile
      (String.sub text 0 i ^ "acc + " ^ lit ^ " /"
      ^ String.sub text (i + String.length needle)
          (String.length text - i - String.length needle))
  in
  let call = Serve.parse_call 1 "pi_mid(200)" in
  let value bytecode compiled =
    match Serve.run_call ~threads:1 ~bytecode compiled call with
    | Ok oc -> oc.Serve.oc_value
    | Error f -> Alcotest.fail (Fault.to_string f)
  in
  let a = variant "4.0" and b = variant "5.0" in
  (* interleaved, so each variant runs after the other compiled *)
  let va = value true a and vb = value true b in
  let va' = value true a and vb' = value true b in
  check_bool "variants differ" false (value_opt_eq va vb);
  check_bool "4.0 matches --no-bytecode" true (value_opt_eq va (value false a));
  check_bool "5.0 matches --no-bytecode" true (value_opt_eq vb (value false b));
  check_bool "4.0 stable" true (value_opt_eq va va');
  check_bool "5.0 stable" true (value_opt_eq vb vb')

(* [Bytecode.unit_key] names the unit's rows; a reset zeroes them.
   Re-parses of one source share the key, so the count starts from a
   reset that silences the other tests' parses of [calls_src]. *)
let test_stats_namespace () =
  Interp.reset_bytecode_stats ();
  let cu = Parser.parse_string calls_src in
  let st = Interp.make_state ~printer:ignore cu in
  ignore (Interp.call st "drive_calls" [ Ast.Int_lit 40; Ast.Int_lit 1 ]);
  let key = Bytecode.unit_key cu in
  let mine () =
    List.filter (fun r -> r.Interp.r_unit = key) (Interp.bytecode_stats ())
  in
  let rows = mine () in
  check_bool "rows under the unit key" true (rows <> []);
  check_int "same rows as the state's own" (List.length rows)
    (List.length (Interp.bytecode_stats_for st));
  Interp.reset_bytecode_stats ();
  check_int "reset zeroes every row" 0
    (List.fold_left (fun a r -> a + r.Interp.r_runs + r.Interp.r_bails) 0 (mine ()));
  ignore (Interp.call st "drive_calls" [ Ast.Int_lit 40; Ast.Int_lit 1 ]);
  check_bool "counting again after reset" true
    (List.map (fun r -> (r.Interp.r_id, r.Interp.r_runs, r.Interp.r_bails)) (mine ())
    = List.map (fun r -> (r.Interp.r_id, r.Interp.r_runs, r.Interp.r_bails)) rows)

let suites =
  [
    ( "bytecode.diff",
      [
        Alcotest.test_case "construct battery" `Quick test_battery_diff;
        Alcotest.test_case "error paths" `Quick test_error_diff;
        Alcotest.test_case "user-call battery" `Quick test_calls_diff;
        Alcotest.test_case "user-call injection" `Quick test_calls_inject_diff;
        Alcotest.test_case "user-call stats" `Quick test_calls_stats;
        Alcotest.test_case "workload coverage" `Quick
          test_workload_bytecode_coverage;
        Alcotest.test_case "saxpy script" `Quick test_saxpy_diff;
        Alcotest.test_case "point_charge script" `Quick test_point_charge_diff;
        Alcotest.test_case "legacy_radiation script" `Quick
          test_legacy_radiation_diff;
        Alcotest.test_case "serve schedules" `Quick test_serve_schedules_diff;
        Alcotest.test_case "serve concurrent" `Quick test_serve_concurrent_diff;
        Alcotest.test_case "serve inject" `Quick test_serve_inject_diff;
        Alcotest.test_case "sarb workload" `Quick test_sarb_diff;
        Alcotest.test_case "fun3d workload" `Quick test_fun3d_diff;
      ] );
    ( "bytecode.units",
      [
        Alcotest.test_case "fresh states share programs" `Quick
          test_states_share_programs;
        Alcotest.test_case "literal variants" `Quick test_literal_variants;
        Alcotest.test_case "stats namespace and reset" `Quick
          test_stats_namespace;
      ] );
  ]
