(* Inverted index over Limple bodies (BackDroid's bytecode-search stage):
   one linear scan of the program, then O(1) candidate lookups.  Ordinals
   record the canonical scan position of every record, so lookups merged
   across several keys can be put back into one program-wide order:
   demarcation points are discovered in it, callers listed in reverse. *)

module T = Types

type site = { st_stmt : T.stmt_id; st_invoke : T.invoke; st_ord : int }
type store = { fs_stmt : T.stmt_id; fs_var : T.var; fs_field : T.field_ref; fs_ord : int }

type t = {
  by_name : (string, site list) Hashtbl.t;  (* invoked name → sites, scan order *)
  by_field : (string * string, store list) Hashtbl.t;
}

let build (prog : Prog.t) : t =
  let by_name = Hashtbl.create 256 in
  let by_field = Hashtbl.create 64 in
  let push tbl key v =
    Hashtbl.replace tbl key (v :: Option.value (Hashtbl.find_opt tbl key) ~default:[])
  in
  let ord = ref 0 in
  List.iter
    (fun (m : T.meth) ->
      let mid = T.method_id_of_meth m in
      Array.iteri
        (fun idx stmt ->
          let sid = { T.sid_meth = mid; sid_idx = idx } in
          (match T.stmt_invoke stmt with
          | Some i ->
              push by_name i.T.iref.T.mname
                { st_stmt = sid; st_invoke = i; st_ord = !ord };
              incr ord
          | None -> ());
          match stmt with
          | T.Assign (T.Lfield (x, f), _) ->
              push by_field (f.T.fcls, f.T.fname)
                { fs_stmt = sid; fs_var = x; fs_field = f; fs_ord = !ord };
              incr ord
          | _ -> ())
        m.T.m_body)
    (Prog.app_methods prog);
  (* Finalize the consed per-key lists back into scan order. *)
  Hashtbl.iter (fun k v -> Hashtbl.replace by_name k (List.rev v))
    (Hashtbl.copy by_name);
  Hashtbl.iter (fun k v -> Hashtbl.replace by_field k (List.rev v))
    (Hashtbl.copy by_field);
  { by_name; by_field }

let sites_invoking t name = Option.value (Hashtbl.find_opt t.by_name name) ~default:[]
let field_stores t key = Option.value (Hashtbl.find_opt t.by_field key) ~default:[]
