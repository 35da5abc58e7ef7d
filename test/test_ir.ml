(* IR tests: builder combinators, printer/parser round-trip, structural
   validation, use/def queries, program lookups, and the ProGuard-style
   obfuscator. *)

module Ir = Extr_ir.Types
module B = Extr_ir.Builder
module Pp = Extr_ir.Pp
module Parser = Extr_ir.Parser
module Prog = Extr_ir.Prog
module Api = Extr_semantics.Api
module Apk = Extr_apk.Apk
module Obfuscator = Extr_apk.Obfuscator
module Corpus = Extr_corpus.Corpus
module Pipeline = Extr_extractocol.Pipeline

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

(* ------------------------------------------------------------------ *)
(* Fixtures                                                           *)
(* ------------------------------------------------------------------ *)

let simple_meth () =
  B.mk_meth ~cls:"com.t.C" ~name:"m" ~params:[ B.local "x" Ir.Int ] ~ret:Ir.Int
    (fun b ->
      let y =
        B.define b Ir.Int (Ir.Binop (Ir.Add, B.vl (B.local "x" Ir.Int), B.vint 1))
      in
      B.return_value b (B.vl y))

let branchy_meth () =
  B.mk_meth ~cls:"com.t.C" ~name:"n" ~params:[ B.local "f" Ir.Bool ] ~ret:Ir.Str
    (fun b ->
      let s = B.define b Ir.Str (Ir.Val (B.vstr "a")) in
      B.ite b
        (B.vl (B.local "f" Ir.Bool))
        (fun b -> B.assign b s (Ir.Val (B.vstr "then")))
        (fun b -> B.assign b s (Ir.Val (B.vstr "else")));
      B.return_value b (B.vl s))

let simple_program () =
  let c =
    B.mk_cls ~super:Api.java_object "com.t.C" [ simple_meth (); branchy_meth () ]
  in
  { Ir.p_classes = [ c ]; p_entries = [ B.mref "com.t.C" "m" 1 ] }

(* ------------------------------------------------------------------ *)
(* Builder                                                            *)
(* ------------------------------------------------------------------ *)

let test_builder_fresh () =
  let b = B.create () in
  let v1 = B.fresh_var b Ir.Int and v2 = B.fresh_var b Ir.Str in
  check Alcotest.bool "distinct names" true (v1.Ir.vname <> v2.Ir.vname)

let test_builder_terminates_void () =
  let m = B.mk_meth ~cls:"C" ~name:"f" ~params:[] ~ret:Ir.Void (fun _ -> ()) in
  check Alcotest.bool "void body ends with return" true
    (match m.Ir.m_body.(Array.length m.Ir.m_body - 1) with
    | Ir.Return None -> true
    | _ -> false)

let test_builder_ite_shape () =
  let m = branchy_meth () in
  let count p = Array.to_list m.Ir.m_body |> List.filter p |> List.length in
  check Alcotest.int "one conditional branch" 1
    (count (function Ir.If _ -> true | _ -> false));
  check Alcotest.int "one goto" 1 (count (function Ir.Goto _ -> true | _ -> false))

let test_builder_while_shape () =
  let m =
    B.mk_meth ~cls:"C" ~name:"l" ~params:[] ~ret:Ir.Void (fun b ->
        let i = B.define b Ir.Int (Ir.Val (B.vint 0)) in
        B.while_ b
          (fun b -> B.vl (B.define b Ir.Bool (Ir.Binop (Ir.Lt, B.vl i, B.vint 3))))
          (fun b -> B.assign b i (Ir.Binop (Ir.Add, B.vl i, B.vint 1))))
  in
  let labels = Hashtbl.create 4 in
  Array.iteri
    (fun idx s -> match s with Ir.Lab l -> Hashtbl.replace labels l idx | _ -> ())
    m.Ir.m_body;
  let has_back_edge = ref false in
  Array.iteri
    (fun idx s ->
      match s with
      | Ir.Goto l when Hashtbl.find labels l < idx -> has_back_edge := true
      | _ -> ())
    m.Ir.m_body;
  check Alcotest.bool "back edge exists" true !has_back_edge

(* ------------------------------------------------------------------ *)
(* Use/def                                                            *)
(* ------------------------------------------------------------------ *)

let test_stmt_def_use () =
  let x = B.local "x" Ir.Int and y = B.local "y" Ir.Int in
  let s = Ir.Assign (Ir.Lvar x, Ir.Binop (Ir.Add, Ir.Local y, Ir.Const (Ir.Cint 1))) in
  check Alcotest.(option string) "def" (Some "x")
    (Option.map (fun v -> v.Ir.vname) (Ir.stmt_def s));
  check
    Alcotest.(list string)
    "uses" [ "y" ]
    (List.map (fun v -> v.Ir.vname) (Ir.stmt_uses s))

let test_field_store_uses_receiver () =
  let x = B.local "x" (Ir.Obj "C") and y = B.local "y" Ir.Str in
  let f = { Ir.fcls = "C"; fname = "g"; fty = Ir.Str } in
  let s = Ir.Assign (Ir.Lfield (x, f), Ir.Val (Ir.Local y)) in
  check Alcotest.(option string) "no local def" None
    (Option.map (fun v -> v.Ir.vname) (Ir.stmt_def s));
  check
    Alcotest.(list string)
    "receiver and value used" [ "x"; "y" ]
    (List.sort compare (List.map (fun v -> v.Ir.vname) (Ir.stmt_uses s)))

let test_stmt_invoke_extraction () =
  let s = Ir.InvokeStmt (B.static_call "C" "f" [ B.vint 1 ]) in
  check Alcotest.bool "invoke found" true (Ir.stmt_invoke s <> None);
  check Alcotest.bool "no invoke in nop" true (Ir.stmt_invoke Ir.Nop = None)

(* ------------------------------------------------------------------ *)
(* Printer / parser round-trip                                        *)
(* ------------------------------------------------------------------ *)

let test_roundtrip () =
  let p = simple_program () in
  let text = Pp.program_to_string p in
  let p' = Parser.parse_program text in
  check Alcotest.string "round-trip is stable" text (Pp.program_to_string p')

let test_roundtrip_constructs () =
  let cls = "com.t.R" in
  let m =
    B.mk_meth ~cls ~name:"all" ~params:[ B.local "p" Ir.Str ] ~ret:Ir.Str
      (fun b ->
        let o = B.new_obj b Api.string_builder [ B.vstr "x\"y\n" ] in
        (* Bytes outside 32-126 print as [\ddd] or [\b]; each must parse
           back as the byte, not as its digits or letter. *)
        ignore
          (B.define b Ir.Str (Ir.Val (B.vstr "caf\195\169 back\bspace \000\255")));
        let n = B.define b Ir.Int (Ir.Val (B.vint (-3))) in
        let arr = B.define b (Ir.Arr Ir.Int) (Ir.NewArr (Ir.Int, B.vl n)) in
        B.emit b (Ir.Assign (Ir.Lelem (arr, B.vint 0), Ir.Val (B.vint 7)));
        let e = B.define b Ir.Int (Ir.AElem (arr, B.vint 0)) in
        let l = B.define b Ir.Int (Ir.ALen arr) in
        let sum = B.define b Ir.Int (Ir.Binop (Ir.Add, B.vl e, B.vl l)) in
        let f = { Ir.fcls = cls; fname = "fld"; fty = Ir.Int } in
        B.set_static b f (B.vl sum);
        let g = B.get_static b f in
        let cast = B.define b Ir.Int (Ir.Cast (Ir.Int, B.vl g)) in
        ignore cast;
        let s =
          B.call_ret b Ir.Str
            (B.virtual_call ~ret:Ir.Str o Api.string_builder "toString" [])
        in
        B.return_value b (B.vl s))
  in
  let c =
    B.mk_cls ~super:Api.java_object
      ~fields:[ B.mk_field ~static:true "fld" Ir.Int ]
      cls [ m ]
  in
  let p = { Ir.p_classes = [ c ]; p_entries = [] } in
  let text = Pp.program_to_string p in
  let p' = Parser.parse_program text in
  check Alcotest.string "all-constructs round trip" text (Pp.program_to_string p')

let test_parser_rejects_garbage () =
  check Alcotest.bool "garbage rejected" true
    (try
       ignore (Parser.parse_program "garbage ^^^");
       false
     with Parser.Parse_error _ -> true)

(* ------------------------------------------------------------------ *)
(* Prog lookups and validation                                        *)
(* ------------------------------------------------------------------ *)

let test_prog_lookup () =
  let prog = Prog.of_program (simple_program ()) in
  check Alcotest.bool "class found" true (Prog.find_class prog "com.t.C" <> None);
  check Alcotest.bool "method found" true
    (Prog.find_method prog { Ir.id_cls = "com.t.C"; id_name = "m" } <> None);
  check Alcotest.bool "missing method" true
    (Prog.find_method prog { Ir.id_cls = "com.t.C"; id_name = "zz" } = None)

let test_subclass_resolution () =
  let base =
    B.mk_cls "com.t.Base"
      [ B.mk_meth ~cls:"com.t.Base" ~name:"go" ~params:[] ~ret:Ir.Void (fun _ -> ()) ]
  in
  let derived = B.mk_cls ~super:"com.t.Base" "com.t.Derived" [] in
  let prog = Prog.of_program { Ir.p_classes = [ base; derived ]; p_entries = [] } in
  check Alcotest.bool "subclass relation" true
    (Prog.is_subclass prog ~sub:"com.t.Derived" ~super:"com.t.Base");
  check Alcotest.bool "virtual resolution walks up" true
    (Prog.resolve_virtual prog ~cls:"com.t.Derived" ~mname:"go" <> None)

(* [Prog.callees] is memoized per (kind, receiver class, method name).  On
   one shared [Prog.t] every repeat of a key is a memo hit; it must answer
   what a fresh [Prog.t], with an empty memo, answers for the same invoke,
   and each receiver class's CHA candidates must be the classes
   [is_subclass] puts under it.
   A hierarchy where one method reference resolves three ways (by kind
   and by receiver class), then every invoke of the case studies, Table 1 and
   50 generated apps — where a receiver class other than the reference's
   never changes the answer, so they alone would not tell a key without
   it. *)
let test_callees_memo () =
  let invokes = ref 0 and repeats = ref 0 in
  let check_all name program (is : Ir.invoke list) =
    let shared = Prog.of_program program in
    let keys = Hashtbl.create 256 in
    let ids prog i = List.map Ir.method_id_of_meth (Prog.callees prog i) in
    let answers =
      List.map
        (fun (i : Ir.invoke) ->
          incr invokes;
          let key =
            match (i.Ir.ikind, i.Ir.ibase) with
            | Ir.Virtual, Some { Ir.vty = Ir.Obj cls; _ } ->
                (i.Ir.ikind, cls, i.Ir.iref.Ir.mname)
            | _, _ -> (i.Ir.ikind, i.Ir.iref.Ir.mcls, i.Ir.iref.Ir.mname)
          in
          if Hashtbl.mem keys key then incr repeats else Hashtbl.add keys key ();
          let memo = ids shared i in
          if memo <> ids (Prog.of_program program) i then
            Alcotest.failf "%s: %s.%s resolves differently through the memo" name
              i.Ir.iref.Ir.mcls i.Ir.iref.Ir.mname;
          memo)
        is
    in
    (* The CHA candidate sets behind the memo: every class whose ancestry
       holds the receiver class. *)
    let names =
      List.sort_uniq compare
        (List.map (fun (c : Ir.cls) -> c.Ir.c_name) program.Ir.p_classes)
    in
    let classes = Hashtbl.create 64 in
    Hashtbl.iter (fun (_, cls, _) () -> Hashtbl.replace classes cls ()) keys;
    Hashtbl.iter
      (fun cls () ->
        if
          List.sort compare (Prog.subclasses shared cls)
          <> List.filter (fun sub -> Prog.is_subclass shared ~sub ~super:cls) names
        then Alcotest.failf "%s: subclasses of %s differ from is_subclass" name cls)
      classes;
    answers
  in
  let go cls = B.mk_meth ~cls ~name:"go" ~params:[] ~ret:Ir.Void (fun _ -> ()) in
  let hierarchy =
    {
      Ir.p_classes =
        [
          B.mk_cls ~super:Api.java_object "com.t.Base" [ go "com.t.Base" ];
          B.mk_cls ~super:"com.t.Base" "com.t.Derived" [ go "com.t.Derived" ];
          B.mk_cls ~super:"com.t.Base" "com.t.Other" [];
        ];
      p_entries = [];
    }
  in
  let call ikind recv =
    {
      Ir.ikind;
      iref = B.mref "com.t.Base" "go" 0;
      ibase = Option.map (fun c -> B.local "r" (Ir.Obj c)) recv;
      iargs = [];
    }
  in
  let answers =
    check_all "hierarchy" hierarchy
      [
        call Ir.Virtual (Some "com.t.Base");
        call Ir.Virtual (Some "com.t.Derived");
        call Ir.Virtual (Some "com.t.Other");
        call Ir.Static None;
        call Ir.Virtual (Some "com.t.Derived");
        call Ir.Virtual (Some "com.t.Base");
      ]
  in
  check Alcotest.int "one reference, three answers" 3
    (List.length (List.sort_uniq compare answers));
  List.iter
    (fun (e : Corpus.entry) ->
      let program =
        Pipeline.with_library_classes (Lazy.force e.Corpus.c_apk).Apk.program
      in
      let is =
        List.concat_map
          (fun (c : Ir.cls) ->
            List.concat_map
              (fun (m : Ir.meth) ->
                List.filter_map Ir.stmt_invoke (Array.to_list m.Ir.m_body))
              c.Ir.c_methods)
          program.Ir.p_classes
      in
      ignore (check_all e.Corpus.c_app.Extr_corpus.Spec.a_name program is))
    (Corpus.case_studies () @ Corpus.table1 ()
    @ Corpus.generated ~seed:42 ~count:50);
  check Alcotest.bool "invokes seen" true (!invokes > 50_000);
  check Alcotest.bool "most invokes repeat a key" true (2 * !repeats > !invokes)

let test_validate_clean () =
  let prog = Prog.of_program (simple_program ()) in
  check Alcotest.int "no validation errors" 0 (List.length (Prog.validate prog))

let test_validate_bad_label () =
  let m =
    {
      Ir.m_cls = "C";
      m_name = "bad";
      m_params = [];
      m_ret = Ir.Void;
      m_static = false;
      m_body = [| Ir.Goto "nowhere"; Ir.Return None |];
    }
  in
  let prog =
    Prog.of_program { Ir.p_classes = [ B.mk_cls "C" [ m ] ]; p_entries = [] }
  in
  check Alcotest.bool "bad label detected" true (Prog.validate prog <> [])

let test_validate_undefined_local () =
  let ghost = B.local "ghost" Ir.Int in
  let m =
    {
      Ir.m_cls = "C";
      m_name = "bad";
      m_params = [];
      m_ret = Ir.Void;
      m_static = false;
      m_body = [| Ir.Return (Some (Ir.Local ghost)) |];
    }
  in
  let prog =
    Prog.of_program { Ir.p_classes = [ B.mk_cls "C" [ m ] ]; p_entries = [] }
  in
  check Alcotest.bool "undefined local detected" true (Prog.validate prog <> [])

let test_app_stmt_count () =
  let prog = Prog.of_program (simple_program ()) in
  check Alcotest.bool "counts statements" true (Prog.app_stmt_count prog > 0)

(* ------------------------------------------------------------------ *)
(* Obfuscator                                                         *)
(* ------------------------------------------------------------------ *)

let test_obfuscator_renames_app_classes () =
  let apk = Apk.make ~package:"com.t" (simple_program ()) in
  let obf, mapping = Obfuscator.obfuscate apk in
  let renamed = Obfuscator.rename_class mapping "com.t.C" in
  check Alcotest.bool "app class renamed" true (renamed <> "com.t.C");
  check Alcotest.bool "package prefix kept" true
    (String.length renamed > 6 && String.sub renamed 0 6 = "com.t.");
  check Alcotest.bool "renamed class present" true
    (List.exists (fun c -> c.Ir.c_name = renamed) obf.Apk.program.Ir.p_classes)

let test_obfuscator_preserves_library () =
  let lib = List.hd Api.library_classes in
  let program =
    { Ir.p_classes = lib :: (simple_program ()).Ir.p_classes; p_entries = [] }
  in
  let apk = Apk.make ~package:"com.t" program in
  let obf, _ = Obfuscator.obfuscate apk in
  check Alcotest.bool "library class untouched" true
    (List.exists (fun c -> c.Ir.c_name = lib.Ir.c_name) obf.Apk.program.Ir.p_classes)

let test_obfuscator_preserves_callbacks () =
  let cb =
    B.mk_meth ~cls:"com.t.L" ~name:"onClick"
      ~params:[ B.local "v" (Ir.Obj Api.view) ]
      ~ret:Ir.Void
      (fun _ -> ())
  in
  let program =
    {
      Ir.p_classes = [ B.mk_cls ~super:Api.on_click_listener "com.t.L" [ cb ] ];
      p_entries = [];
    }
  in
  let apk = Apk.make ~package:"com.t" program in
  let obf, _ = Obfuscator.obfuscate apk in
  let has_onclick =
    List.exists
      (fun c -> List.exists (fun m -> m.Ir.m_name = "onClick") c.Ir.c_methods)
      obf.Apk.program.Ir.p_classes
  in
  check Alcotest.bool "framework callback name preserved" true has_onclick

let test_obfuscated_validates () =
  let apk = Apk.make ~package:"com.t" (simple_program ()) in
  let obf, _ = Obfuscator.obfuscate apk in
  let prog = Prog.of_program obf.Apk.program in
  check Alcotest.int "obfuscated program validates" 0
    (List.length (Prog.validate prog))

(* ------------------------------------------------------------------ *)
(* Apk                                                                *)
(* ------------------------------------------------------------------ *)

let test_apk_resources () =
  let apk = Apk.make ~package:"com.t" ~resources:[ (7, "seven") ] (simple_program ()) in
  check Alcotest.(option string) "resource lookup" (Some "seven")
    (Apk.resource_string apk 7);
  check Alcotest.(option string) "missing resource" None (Apk.resource_string apk 8)

let test_apk_entry_points () =
  let on_create =
    B.mk_meth ~cls:"com.t.A" ~name:"onCreate" ~params:[] ~ret:Ir.Void (fun _ -> ())
  in
  let program =
    {
      Ir.p_classes = [ B.mk_cls ~super:Api.activity "com.t.A" [ on_create ] ];
      p_entries = [];
    }
  in
  let apk = Apk.make ~package:"com.t" ~activities:[ "com.t.A" ] program in
  check Alcotest.int "lifecycle entries found" 1 (List.length (Apk.entry_points apk))

let () =
  Alcotest.run "ir"
    [
      ( "builder",
        [
          tc "fresh vars distinct" test_builder_fresh;
          tc "void termination" test_builder_terminates_void;
          tc "ite shape" test_builder_ite_shape;
          tc "while back edge" test_builder_while_shape;
        ] );
      ( "use-def",
        [
          tc "assign def/use" test_stmt_def_use;
          tc "field store receiver" test_field_store_uses_receiver;
          tc "invoke extraction" test_stmt_invoke_extraction;
        ] );
      ( "parser",
        [
          tc "round trip" test_roundtrip;
          tc "all constructs" test_roundtrip_constructs;
          tc "rejects garbage" test_parser_rejects_garbage;
        ] );
      ( "prog",
        [
          tc "lookups" test_prog_lookup;
          tc "subclass resolution" test_subclass_resolution;
          tc "callees memo equals fresh resolution (89 apps)" test_callees_memo;
          tc "validate clean" test_validate_clean;
          tc "validate bad label" test_validate_bad_label;
          tc "validate undefined local" test_validate_undefined_local;
          tc "stmt count" test_app_stmt_count;
        ] );
      ( "obfuscator",
        [
          tc "renames app classes" test_obfuscator_renames_app_classes;
          tc "preserves library" test_obfuscator_preserves_library;
          tc "preserves callbacks" test_obfuscator_preserves_callbacks;
          tc "obfuscated validates" test_obfuscated_validates;
        ] );
      ( "apk",
        [
          tc "resources" test_apk_resources;
          tc "entry points" test_apk_entry_points;
        ] );
    ]
