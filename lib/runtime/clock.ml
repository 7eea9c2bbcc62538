(** Monotonic time for every latency, deadline and duration the library
    takes: CLOCK_MONOTONIC through bechamel's [noalloc] stub, which
    returns an unboxed int64.  A wall-clock step (NTP, a manual date
    change) therefore never fires a deadline early or late nor skews a
    latency, and a reading allocates nothing.  Readings are only
    meaningful relative to each other. *)

(** Nanoseconds since an arbitrary fixed origin. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

(** Seconds since the same origin. *)
let now_s () = float_of_int (now_ns ()) *. 1e-9

(** Milliseconds elapsed since [t0_ns], a reading of {!now_ns}. *)
let ms_since t0_ns = float_of_int (now_ns () - t0_ns) *. 1e-6
