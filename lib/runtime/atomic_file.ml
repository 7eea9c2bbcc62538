(** Whole-file replacement that a crash cannot tear.

    The contents go to a fresh temporary file in the target's directory,
    which is synced and then renamed over the target.  A rename within
    one directory is atomic on POSIX file systems, so a reader sees the
    old file or the new one, never a prefix of either.  On failure the
    temporary file is removed, the target is left as it was, and the
    error comes back as [Sys_error], like [open_out]'s. *)

let sys_error path e = raise (Sys_error (path ^ ": " ^ Unix.error_message e))

(* A new file next to [path], created exclusively, mode 0o666 less the
   umask (as [open_out] creates files). *)
let rec open_temp path n =
  let tmp =
    Filename.concat (Filename.dirname path)
      (Printf.sprintf ".%s.%d.%d.tmp" (Filename.basename path) (Unix.getpid ()) n)
  in
  match Unix.openfile tmp [ O_WRONLY; O_CREAT; O_EXCL; O_CLOEXEC ] 0o666 with
  | fd -> (tmp, fd)
  | exception Unix.Unix_error (EEXIST, _, _) -> open_temp path (n + 1)
  | exception Unix.Unix_error (e, _, _) -> sys_error path e

let write path contents =
  let tmp, fd = open_temp path 0 in
  match
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        let len = String.length contents in
        let rec go off =
          if off < len then go (off + Unix.write_substring fd contents off (len - off))
        in
        go 0;
        Unix.fsync fd);
    Sys.rename tmp path
  with
  | () -> ()
  | exception e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    (match e with Unix.Unix_error (e, _, _) -> sys_error path e | e -> raise e)
