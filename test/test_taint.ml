(* Taint-engine tests: forward propagation (assignments, fields, calls,
   returns, library models, DB pseudo-stores) and backward propagation
   with inverted rules (LHS taints RHS, callee args to caller args). *)

module Ir = Extr_ir.Types
module B = Extr_ir.Builder
module Prog = Extr_ir.Prog
module Callgraph = Extr_cfg.Callgraph
module Api = Extr_semantics.Api
module Callbacks = Extr_semantics.Callbacks
module Fact = Extr_taint.Fact
module Forward = Extr_taint.Forward
module Backward = Extr_taint.Backward

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let mk_prog classes =
  Prog.of_program { Ir.p_classes = classes @ Api.library_classes; p_entries = [] }

let mid cls name = { Ir.id_cls = cls; id_name = name }
let sid cls name idx = { Ir.sid_meth = mid cls name; sid_idx = idx }

(** A method whose statement list we control exactly. *)
let raw_meth ?(params = []) ?(static = false) cls name body =
  {
    Ir.m_cls = cls;
    m_name = name;
    m_params = params;
    m_ret = Ir.Void;
    m_static = static;
    m_body = Array.of_list body;
  }

let v name ty = B.local name ty

(* ------------------------------------------------------------------ *)
(* Forward propagation                                                *)
(* ------------------------------------------------------------------ *)

let test_forward_assignment_chain () =
  let x = v "x" Ir.Str and y = v "y" Ir.Str and z = v "z" Ir.Str in
  let m =
    raw_meth "C" "m"
      [
        Ir.Assign (Ir.Lvar x, Ir.Val (B.vstr "seed"));
        Ir.Assign (Ir.Lvar y, Ir.Val (Ir.Local x));
        Ir.Assign (Ir.Lvar z, Ir.Val (Ir.Local y));
        Ir.Return None;
      ]
  in
  let prog = mk_prog [ B.mk_cls "C" [ m ] ] in
  let cg = Callgraph.lazy_build prog in
  let eng = Forward.create prog cg in
  Forward.inject_after eng (sid "C" "m" 0) [ Fact.local (mid "C" "m") x ];
  Forward.run eng;
  let touched = Forward.tainted_stmts eng in
  check Alcotest.bool "y = x touched" true (Ir.Stmt_set.mem (sid "C" "m" 1) touched);
  check Alcotest.bool "z = y touched" true (Ir.Stmt_set.mem (sid "C" "m" 2) touched)

let test_forward_kill_on_redefine () =
  let x = v "x" Ir.Str and y = v "y" Ir.Str in
  let m =
    raw_meth "C" "m"
      [
        Ir.Assign (Ir.Lvar x, Ir.Val (B.vstr "seed"));
        Ir.Assign (Ir.Lvar x, Ir.Val (B.vstr "clean"));
        Ir.Assign (Ir.Lvar y, Ir.Val (Ir.Local x));
        Ir.Return None;
      ]
  in
  let prog = mk_prog [ B.mk_cls "C" [ m ] ] in
  let eng = Forward.create prog (Callgraph.lazy_build prog) in
  Forward.inject_after eng (sid "C" "m" 0) [ Fact.local (mid "C" "m") x ];
  Forward.run eng;
  check Alcotest.bool "use after kill untainted" false
    (Ir.Stmt_set.mem (sid "C" "m" 2) (Forward.tainted_stmts eng))

let test_forward_through_fields () =
  let x = v "x" Ir.Str and o = v "o" (Ir.Obj "C") and y = v "y" Ir.Str in
  let f = { Ir.fcls = "C"; fname = "g"; fty = Ir.Str } in
  let m =
    raw_meth "C" "m"
      [
        Ir.Assign (Ir.Lvar x, Ir.Val (B.vstr "seed"));
        Ir.Assign (Ir.Lvar o, Ir.New "C");
        Ir.Assign (Ir.Lfield (o, f), Ir.Val (Ir.Local x));
        Ir.Assign (Ir.Lvar y, Ir.IField (o, f));
        Ir.Return None;
      ]
  in
  let prog = mk_prog [ B.mk_cls "C" [ m ] ] in
  let eng = Forward.create prog (Callgraph.lazy_build prog) in
  Forward.inject_after eng (sid "C" "m" 0) [ Fact.local (mid "C" "m") x ];
  Forward.run eng;
  check Alcotest.bool "field load tainted" true
    (Ir.Stmt_set.mem (sid "C" "m" 3) (Forward.tainted_stmts eng))

let test_forward_interprocedural () =
  let p = v "p" Ir.Str and q = v "q" Ir.Str in
  let callee =
    raw_meth ~params:[ p ] "C" "callee"
      [ Ir.Assign (Ir.Lvar q, Ir.Val (Ir.Local p)); Ir.Return (Some (Ir.Local q)) ]
  in
  let x = v "x" Ir.Str and r = v "r" Ir.Str in
  let caller =
    raw_meth "C" "caller"
      [
        Ir.Assign (Ir.Lvar x, Ir.Val (B.vstr "seed"));
        Ir.Assign
          ( Ir.Lvar r,
            Ir.Invoke
              (B.virtual_call ~ret:Ir.Str (Ir.this_var "C") "C" "callee"
                 [ Ir.Local x ]) );
        Ir.Return None;
      ]
  in
  let prog = mk_prog [ B.mk_cls "C" [ callee; caller ] ] in
  let eng = Forward.create prog (Callgraph.lazy_build prog) in
  Forward.inject_after eng (sid "C" "caller" 0) [ Fact.local (mid "C" "caller") x ];
  Forward.run eng;
  let touched = Forward.tainted_stmts eng in
  check Alcotest.bool "callee body tainted" true
    (Ir.Stmt_set.mem (sid "C" "callee" 0) touched);
  (* Return taint flows back: the call-site definition becomes tainted. *)
  check Alcotest.bool "call site tainted" true
    (Ir.Stmt_set.mem (sid "C" "caller" 1) touched)

let test_forward_library_model_propagates () =
  let x = v "x" Ir.Str and sb = v "sb" (Ir.Obj Api.string_builder) and out = v "out" Ir.Str in
  let m =
    raw_meth "C" "m"
      [
        Ir.Assign (Ir.Lvar x, Ir.Val (B.vstr "seed"));
        Ir.Assign (Ir.Lvar sb, Ir.New Api.string_builder);
        Ir.InvokeStmt (B.special_call sb Api.string_builder "<init>" []);
        Ir.InvokeStmt
          (B.virtual_call ~ret:(Ir.Obj Api.string_builder) sb Api.string_builder
             "append" [ Ir.Local x ]);
        Ir.Assign
          ( Ir.Lvar out,
            Ir.Invoke (B.virtual_call ~ret:Ir.Str sb Api.string_builder "toString" []) );
        Ir.Return None;
      ]
  in
  let prog = mk_prog [ B.mk_cls "C" [ m ] ] in
  let eng = Forward.create prog (Callgraph.lazy_build prog) in
  Forward.inject_after eng (sid "C" "m" 0) [ Fact.local (mid "C" "m") x ];
  Forward.run eng;
  check Alcotest.bool "builder result tainted" true
    (Ir.Stmt_set.mem (sid "C" "m" 4) (Forward.tainted_stmts eng))

let test_forward_log_sanitizes () =
  let x = v "x" Ir.Str and y = v "y" Ir.Str in
  let m =
    raw_meth "C" "m"
      [
        Ir.Assign (Ir.Lvar x, Ir.Val (B.vstr "seed"));
        Ir.Assign
          ( Ir.Lvar y,
            Ir.Invoke (B.static_call ~ret:Ir.Void Api.android_log "d" [ B.vstr "t"; Ir.Local x ]) );
        Ir.Return None;
      ]
  in
  let prog = mk_prog [ B.mk_cls "C" [ m ] ] in
  let eng = Forward.create prog (Callgraph.lazy_build prog) in
  Forward.inject_after eng (sid "C" "m" 0) [ Fact.local (mid "C" "m") x ];
  Forward.run eng;
  let facts = Forward.facts_after eng (sid "C" "m" 1) in
  check Alcotest.bool "log result untainted" false
    (Fact.local_tainted facts (mid "C" "m") y)

let test_forward_db_pseudo_store () =
  let x = v "x" Ir.Str
  and db = v "db" (Ir.Obj Api.sqlite_database)
  and cv = v "cv" (Ir.Obj Api.content_values)
  and cur = v "cur" (Ir.Obj Api.cursor)
  and out = v "out" Ir.Str in
  let m =
    raw_meth "C" "m"
      [
        Ir.Assign (Ir.Lvar x, Ir.Val (B.vstr "seed"));
        Ir.Assign (Ir.Lvar db, Ir.New Api.sqlite_database);
        Ir.Assign (Ir.Lvar cv, Ir.New Api.content_values);
        Ir.InvokeStmt
          (B.virtual_call cv Api.content_values "put" [ B.vstr "c"; Ir.Local x ]);
        Ir.InvokeStmt
          (B.virtual_call db Api.sqlite_database "insert" [ B.vstr "t"; Ir.Local cv ]);
        Ir.Assign
          ( Ir.Lvar cur,
            Ir.Invoke
              (B.virtual_call ~ret:(Ir.Obj Api.cursor) db Api.sqlite_database
                 "query" [ B.vstr "t" ]) );
        Ir.Assign
          ( Ir.Lvar out,
            Ir.Invoke
              (B.virtual_call ~ret:Ir.Str cur Api.cursor "getString" [ B.vstr "c" ]) );
        Ir.Return None;
      ]
  in
  let prog = mk_prog [ B.mk_cls "C" [ m ] ] in
  let eng = Forward.create prog (Callgraph.lazy_build prog) in
  Forward.inject_after eng (sid "C" "m" 0) [ Fact.local (mid "C" "m") x ];
  Forward.run eng;
  let facts = Forward.facts_after eng (sid "C" "m" 6) in
  check Alcotest.bool "cursor read tainted via db store" true
    (Fact.local_tainted facts (mid "C" "m") out)

(* ------------------------------------------------------------------ *)
(* Backward propagation                                               *)
(* ------------------------------------------------------------------ *)

let test_backward_inverted_assignment () =
  let x = v "x" Ir.Str and y = v "y" Ir.Str and z = v "z" Ir.Str in
  let m =
    raw_meth "C" "m"
      [
        Ir.Assign (Ir.Lvar x, Ir.Val (B.vstr "a"));
        Ir.Assign (Ir.Lvar y, Ir.Val (Ir.Local x));
        Ir.Assign (Ir.Lvar z, Ir.Val (Ir.Local y));
        Ir.Return None;
      ]
  in
  let prog = mk_prog [ B.mk_cls "C" [ m ] ] in
  let eng = Backward.create prog (Callgraph.lazy_build prog) in
  (* z relevant at the end: its whole derivation chain joins the slice. *)
  Backward.inject_at eng (sid "C" "m" 3) [ Fact.local (mid "C" "m") z ];
  Backward.run eng;
  let touched = Backward.touched_stmts eng in
  check Alcotest.bool "z def" true (Ir.Stmt_set.mem (sid "C" "m" 2) touched);
  check Alcotest.bool "y def" true (Ir.Stmt_set.mem (sid "C" "m" 1) touched);
  check Alcotest.bool "x def" true (Ir.Stmt_set.mem (sid "C" "m" 0) touched)

let test_backward_irrelevant_excluded () =
  let x = v "x" Ir.Str and noise = v "noise" Ir.Str in
  let m =
    raw_meth "C" "m"
      [
        Ir.Assign (Ir.Lvar noise, Ir.Val (B.vstr "n"));
        Ir.Assign (Ir.Lvar x, Ir.Val (B.vstr "a"));
        Ir.Return None;
      ]
  in
  let prog = mk_prog [ B.mk_cls "C" [ m ] ] in
  let eng = Backward.create prog (Callgraph.lazy_build prog) in
  Backward.inject_at eng (sid "C" "m" 2) [ Fact.local (mid "C" "m") x ];
  Backward.run eng;
  check Alcotest.bool "noise not in slice" false
    (Ir.Stmt_set.mem (sid "C" "m" 0) (Backward.touched_stmts eng))

let test_backward_library_inversion () =
  (* url = sb.toString(): relevant url makes sb relevant, then append's
     argument. *)
  let x = v "x" Ir.Str and sb = v "sb" (Ir.Obj Api.string_builder) and url = v "url" Ir.Str in
  let m =
    raw_meth "C" "m"
      [
        Ir.Assign (Ir.Lvar x, Ir.Val (B.vstr "piece"));
        Ir.Assign (Ir.Lvar sb, Ir.New Api.string_builder);
        Ir.InvokeStmt
          (B.virtual_call ~ret:(Ir.Obj Api.string_builder) sb Api.string_builder
             "append" [ Ir.Local x ]);
        Ir.Assign
          ( Ir.Lvar url,
            Ir.Invoke (B.virtual_call ~ret:Ir.Str sb Api.string_builder "toString" []) );
        Ir.Return None;
      ]
  in
  let prog = mk_prog [ B.mk_cls "C" [ m ] ] in
  let eng = Backward.create prog (Callgraph.lazy_build prog) in
  Backward.inject_at eng (sid "C" "m" 3) [ Fact.local (mid "C" "m") url ];
  Backward.run eng;
  let touched = Backward.touched_stmts eng in
  check Alcotest.bool "append in slice" true (Ir.Stmt_set.mem (sid "C" "m" 2) touched);
  check Alcotest.bool "piece def in slice" true
    (Ir.Stmt_set.mem (sid "C" "m" 0) touched)

let test_backward_callee_args_to_caller () =
  let p = v "p" Ir.Str in
  let callee =
    raw_meth ~params:[ p ] "C" "send"
      [
        Ir.InvokeStmt
          (B.virtual_call
             (B.local "this" (Ir.Obj "C"))
             Api.string_builder "append" [ Ir.Local p ]);
        Ir.Return None;
      ]
  in
  let x = v "x" Ir.Str in
  let caller =
    raw_meth "C" "caller"
      [
        Ir.Assign (Ir.Lvar x, Ir.Val (B.vstr "value"));
        Ir.InvokeStmt (B.virtual_call (Ir.this_var "C") "C" "send" [ Ir.Local x ]);
        Ir.Return None;
      ]
  in
  let prog = mk_prog [ B.mk_cls "C" [ callee; caller ] ] in
  let eng = Backward.create prog (Callgraph.lazy_build prog) in
  (* The parameter is relevant inside the callee. *)
  Backward.inject_at eng (sid "C" "send" 0) [ Fact.local (mid "C" "send") p ];
  Backward.run eng;
  check Alcotest.bool "caller argument def in slice" true
    (Ir.Stmt_set.mem (sid "C" "caller" 0) (Backward.touched_stmts eng))

let test_backward_field_fact_collection () =
  let this = Ir.this_var "C" in
  let x = v "x" Ir.Str and url = v "url" Ir.Str in
  let f = { Ir.fcls = "C"; fname = "frag"; fty = Ir.Str } in
  let m =
    raw_meth "C" "m"
      [
        Ir.Assign (Ir.Lvar x, Ir.IField (this, f));
        Ir.Assign (Ir.Lvar url, Ir.Val (Ir.Local x));
        Ir.Return None;
      ]
  in
  let prog = mk_prog [ B.mk_cls ~fields:[ B.mk_field "frag" Ir.Str ] "C" [ m ] ] in
  let eng = Backward.create prog (Callgraph.lazy_build prog) in
  Backward.inject_at eng (sid "C" "m" 1) [ Fact.local (mid "C" "m") url ];
  Backward.run eng;
  let fields = Fact.field_facts (Backward.all_facts eng) in
  check Alcotest.bool "heap field discovered for async heuristic" true
    (List.mem ("C", "frag") fields)

let () =
  Alcotest.run "taint"
    [
      ( "forward",
        [
          tc "assignment chain" test_forward_assignment_chain;
          tc "kill on redefine" test_forward_kill_on_redefine;
          tc "through fields" test_forward_through_fields;
          tc "interprocedural" test_forward_interprocedural;
          tc "library model" test_forward_library_model_propagates;
          tc "log sanitizes" test_forward_log_sanitizes;
          tc "db pseudo store" test_forward_db_pseudo_store;
        ] );
      ( "backward",
        [
          tc "inverted assignment" test_backward_inverted_assignment;
          tc "irrelevant excluded" test_backward_irrelevant_excluded;
          tc "library inversion" test_backward_library_inversion;
          tc "callee args to caller" test_backward_callee_args_to_caller;
          tc "field fact collection" test_backward_field_fact_collection;
        ] );
    ]
