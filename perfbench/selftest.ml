(* Small-size self-test: every workload, untraced and traced, on two seeds
   for the generated corpus.  Each run is this executable in a child
   process; its last output line must be a correct result whose metrics
   are exactly the ones BENCHMARK.json lists (plus a workload's own
   [extra] rows), each with its unit, and the untraced runs must read
   exact_ratio = 1. *)

module Json = Extr_httpmodel.Json

let metric_specs json key =
  match Json.member key json with
  | Some (Json.List l) ->
      List.filter_map
        (fun m ->
          match (Json.member "name" m, Json.member "unit" m) with
          | Some (Json.Str n), Some (Json.Str u) -> Some (n, u)
          | _ -> None)
        l
  | _ -> []

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Run one child, returning its last stdout line. *)
let last_line ~exe args =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin out_w
      Unix.stderr
  in
  Unix.close out_w;
  let ic = Unix.in_channel_of_descr out_r in
  let out = In_channel.input_all ic in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  let lines = List.filter (( <> ) "") (String.split_on_char '\n' out) in
  (status, match List.rev lines with l :: _ -> l | [] -> "")

let check_run ~exe ~specs ~workload ~seed ~trace =
  let args =
    [ "--workload"; workload; "--seed"; string_of_int seed; "--seconds"; "1";
      "--trace"; (if trace then "1" else "0"); "--size"; "small" ]
  in
  let label = String.concat " " args in
  let status, line = last_line ~exe args in
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  if status <> Unix.WEXITED 0 then fail "did not exit 0";
  (match Json.of_string_opt line with
  | None -> fail "last line is not JSON: %s" line
  | Some j -> (
      if Json.member "correct" j <> Some (Json.Bool true) then fail "correct is not true";
      if Json.member "failed" j <> Some (Json.Int 0) then fail "failed is not 0";
      (match Json.member "attempted" j with
      | Some (Json.Int n) when n >= 1 -> ()
      | _ -> fail "attempted is not a positive integer");
      match Json.member "metrics" j with
      | Some (Json.Obj ms) ->
          List.iter
            (fun (name, unit_) ->
              match List.assoc_opt name ms with
              | None -> fail "metric %s missing" name
              | Some m -> (
                  if Json.member "unit" m <> Some (Json.Str unit_) then
                    fail "metric %s lacks unit %s" name unit_;
                  match Json.member "value" m with
                  | Some (Json.Int _ | Json.Float _) -> ()
                  | _ -> fail "metric %s has no numeric value" name))
            specs;
          List.iter
            (fun (name, _) ->
              if not (List.mem_assoc name specs) then fail "unlisted metric %s" name)
            ms;
          if not trace then (
            match Option.bind (List.assoc_opt "exact_ratio" ms) (Json.member "value") with
            | Some (Json.Int 1) -> ()
            | Some (Json.Float f) when f = 1.0 -> ()
            | _ -> fail "exact_ratio is not 1")
      | _ -> fail "no metrics object"));
  List.iter (fun p -> Printf.printf "FAIL %s: %s\n" label p) (List.rev !problems);
  if !problems = [] then Printf.printf "ok   %s\n%!" label;
  !problems = []

(* [extra workload] lists the end-to-end rows only that workload prints. *)
let run ~exe ~benchmark_json ~extra =
  let json = Json.of_string (read_file benchmark_json) in
  let end_to_end = metric_specs json "end_to_end" in
  let per_layer = metric_specs json "per_layer" in
  let runs =
    List.concat_map
      (fun w ->
        [ (w, 1, false); (w, 1, true) ]
        @ if w = "table1" then [] else [ (w, 2, false) ])
      [ "table1"; "gen1000-cold"; "gen1000-warm" ]
  in
  let ok =
    List.for_all Fun.id
      (List.map
         (fun (workload, seed, trace) ->
           check_run ~exe
             ~specs:(if trace then per_layer else end_to_end @ extra workload)
             ~workload ~seed ~trace)
         runs)
  in
  (* Every run must have removed its scratch journals and caches. *)
  let leftovers =
    if Sys.file_exists Host.output_dir then
      List.filter
        (fun name -> String.starts_with ~prefix:"tmp-" name)
        (Array.to_list (Sys.readdir Host.output_dir))
    else []
  in
  List.iter (Printf.printf "FAIL scratch directory left behind: %s\n") leftovers;
  if ok && leftovers = [] then 0 else 1
