(* Process-level measurements and scratch directories. *)

external maxrss_kb : bool -> int = "perfbench_maxrss_kb" [@@noalloc]

let now = Unix.gettimeofday

(* User + system CPU seconds of this process and of its reaped children
   (the pool's workers are reaped when [Pool.run] returns). *)
let cpu_s () =
  let t = Unix.times () in
  (t.Unix.tms_utime +. t.Unix.tms_stime, t.Unix.tms_cutime +. t.Unix.tms_cstime)

let self_peak_rss_mb () = float_of_int (maxrss_kb false) /. 1024.
let children_peak_rss_mb () = float_of_int (maxrss_kb true) /. 1024.

(* Run this executable again with [args] and wait for it to end; the
   child writes to the same standard output and error.  Returns its exit
   code, 2 if a signal ended it. *)
let run_self args =
  flush stdout;
  let exe = Sys.executable_name in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin
      Unix.stdout Unix.stderr
  in
  let rec wait () =
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED n -> n
    | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) -> 2
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ()

let nproc () = Domain.recommended_domain_count ()

let describe () = Printf.sprintf "nproc=%d ocaml=%s" (nproc ()) Sys.ocaml_version

(* Scratch space lives under the working directory (the checkout being
   measured) and is removed at exit; forked pool workers leave through
   [Unix._exit], so only this process runs the cleanup. *)
let rec remove_tree path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter
        (fun name -> remove_tree (Filename.concat path name))
        (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let output_dir = ".perfbench"

let ensure_dir path =
  if not (Sys.file_exists path) then Unix.mkdir path 0o755

let scratch_root =
  lazy
    (ensure_dir output_dir;
     let root =
       Filename.concat output_dir (Printf.sprintf "tmp-%d" (Unix.getpid ()))
     in
     remove_tree root;
     Unix.mkdir root 0o755;
     at_exit (fun () -> remove_tree root);
     root)

let fresh_counter = ref 0

(* A new empty directory under the scratch root. *)
let fresh_dir label =
  incr fresh_counter;
  let dir =
    Filename.concat (Lazy.force scratch_root)
      (Printf.sprintf "%s-%d" label !fresh_counter)
  in
  Unix.mkdir dir 0o755;
  dir

(* (name, size, mtime) of every file in a directory, sorted: equal
   listings before and after a pass mean the pass wrote nothing there. *)
let listing dir =
  Sys.readdir dir |> Array.to_list
  |> List.map (fun name ->
         let st = Unix.stat (Filename.concat dir name) in
         (name, st.Unix.st_size, st.Unix.st_mtime))
  |> List.sort compare
