(* Tests for the indexed query engine: equality with the closed-form
   oracles on a generated corpus, the hand-rolled JSON codec, and the
   serve-loop protocol (including malformed input). *)

module Api = Core.Apidb.Api
module Syscall_table = Core.Apidb.Syscall_table
module Store = Core.Db.Store
module Query = Core.Query.Engine
module Json = Core.Query.Json
module Serve = Core.Query.Serve
module Importance = Core.Metrics.Importance
module Completeness = Core.Metrics.Completeness
module Rng = Core.Distro.Rng
module Stage = Core.Perf.Stage

let env = lazy (Core.Study.Env.create_small ())
let index () = (Lazy.force env).Core.Study.Env.index
let store () = (Lazy.force env).Core.Study.Env.store

let tol = 1e-12

let check_close name a b =
  if Float.abs (a -. b) > tol then
    Alcotest.failf "%s: index %.17g vs oracle %.17g (diff %g)" name a b
      (Float.abs (a -. b))

(* --- index vs oracle --------------------------------------------------- *)

let test_importance_matches_oracle () =
  let idx = index () and store = store () in
  Array.iter
    (fun (e : Syscall_table.entry) ->
      let api = Api.Syscall e.Syscall_table.nr in
      check_close
        ("importance " ^ e.Syscall_table.name)
        (Importance.of_index idx api)
        (Importance.importance store api);
      check_close
        ("unweighted " ^ e.Syscall_table.name)
        (Importance.unweighted_of_index idx api)
        (Importance.unweighted store api);
      check_close
        ("unweighted-elf " ^ e.Syscall_table.name)
        (Importance.unweighted_elf_of_index idx api)
        (Importance.unweighted_elf store api))
    Syscall_table.all;
  (* APIs the corpus never mentions *)
  check_close "unknown syscall"
    (Importance.of_index idx (Api.Syscall 4095))
    (Importance.importance store (Api.Syscall 4095));
  check_close "unknown pseudo-file"
    (Importance.of_index idx (Api.Pseudo_file "/proc/nope"))
    (Importance.importance store (Api.Pseudo_file "/proc/nope"))

let test_ranking_matches_oracle () =
  Alcotest.(check (list int)) "rankings identical"
    (Importance.rank_syscalls (store ()))
    (Importance.rank_syscalls_of_index (index ()))

let random_subsets ~n ~max_size =
  let rng = Rng.create 777 in
  let all_nrs =
    Array.to_list Syscall_table.all
    |> List.map (fun (e : Syscall_table.entry) -> e.Syscall_table.nr)
  in
  List.init n (fun _ ->
      let k = 1 + Rng.int rng max_size in
      Rng.sample rng k all_nrs)

let test_subset_completeness_matches_oracle () =
  let idx = index () and store = store () in
  List.iteri
    (fun i nrs ->
      check_close
        (Printf.sprintf "subset %d (%d syscalls)" i (List.length nrs))
        (Completeness.of_syscall_set_index idx nrs)
        (Completeness.of_syscall_set store nrs))
    (random_subsets ~n:200 ~max_size:200);
  (* degenerate subsets *)
  check_close "empty subset"
    (Completeness.of_syscall_set_index idx [])
    (Completeness.of_syscall_set store []);
  let everything =
    Array.to_list Syscall_table.all
    |> List.map (fun (e : Syscall_table.entry) -> e.Syscall_table.nr)
  in
  check_close "all syscalls"
    (Completeness.of_syscall_set_index idx everything)
    (Completeness.of_syscall_set store everything)

let test_predicate_completeness_matches_oracle () =
  let idx = index () and store = store () in
  (* a support predicate over every API kind, not just syscalls *)
  let preds =
    [ ("all", fun _ -> true);
      ("none", fun _ -> false);
      ( "syscalls under 200",
        function Api.Syscall nr -> nr < 200 | _ -> true );
      ( "no ioctls",
        function Api.Vop (Api.Ioctl, _) -> false | _ -> true );
      ( "no proc",
        function
        | Api.Pseudo_file p -> not (String.length p >= 5 && String.sub p 0 5 = "/proc")
        | _ -> true ) ]
  in
  List.iter
    (fun (name, pred) ->
      check_close ("all-apis " ^ name)
        (Completeness.of_index ~scope:Completeness.All_apis idx
           ~supported:pred)
        (Completeness.weighted_completeness ~scope:Completeness.All_apis
           store ~supported:pred);
      check_close ("syscalls-only " ^ name)
        (Completeness.of_index ~scope:Completeness.Syscalls_only idx
           ~supported:pred)
        (Completeness.weighted_completeness
           ~scope:Completeness.Syscalls_only store ~supported:pred))
    preds

let test_dependents_ranked () =
  let idx = index () and store = store () in
  let api =
    (* most important syscall: guaranteed to have dependents *)
    Api.Syscall (List.hd (Importance.rank_syscalls store))
  in
  let ranked = Query.dependents_ranked idx api in
  Alcotest.(check bool) "non-empty" true (ranked <> []);
  (* sorted by probability, descending *)
  let rec sorted = function
    | (_, a) :: ((_, b) :: _ as rest) -> a >= b && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "sorted by prob" true (sorted ranked);
  Alcotest.(check int) "same population"
    (List.length (Store.dependents store api))
    (List.length ranked);
  let limited = Query.dependents_ranked ~limit:3 idx api in
  Alcotest.(check int) "limit honored" (min 3 (List.length ranked))
    (List.length limited)

(* The router's merge: the partials of [shard_ranges] summed in range
   order over the shared denominator. *)
let scattered ~shards idx nrs =
  let _, den = Query.eval_syscalls_partial idx nrs ~lo:0 ~hi:0 in
  let num =
    List.fold_left
      (fun acc (lo, hi) ->
        acc +. fst (Query.eval_syscalls_partial idx nrs ~lo ~hi))
      0.0
      (Query.shard_ranges (Query.n_packages idx) shards)
  in
  if den = 0.0 then 0.0 else num /. den

let test_sharded_matches_unsharded () =
  (* the scattered sum regroups the numerator by package range, so it
     may differ from the single sweep only by float reassociation —
     within 1e-12, never more *)
  let idx = index () in
  List.iteri
    (fun i nrs ->
      let single = Query.eval_syscalls idx nrs in
      List.iter
        (fun shards ->
          check_close
            (Printf.sprintf "subset %d sharded x%d" i shards)
            (scattered ~shards idx nrs)
            single)
        [ 1; 2; 7 ])
    (random_subsets ~n:60 ~max_size:150);
  check_close "empty subset sharded"
    (scattered ~shards:4 idx [])
    (Query.eval_syscalls idx [])

(* The universal-core gate, counted exactly. A syscall is in the core
   when every package needs it: with everything else supported, no
   package is (dependency rule included). A query that omits a core
   syscall must be answered by the gate ([query:eval-gated]), every
   other one must reach the class tests ([query:eval]). A gate that
   lets everything through answers the same numbers more slowly, so
   only the counters can tell. *)
let test_core_gate_counts () =
  let idx = index () and store = store () in
  let used =
    Array.fold_left
      (fun acc (p : Store.pkg_row) ->
        Api.Set.fold
          (fun api acc ->
            match api with Api.Syscall nr -> nr :: acc | _ -> acc)
          p.Store.pr_apis acc)
      [] store.Store.packages
    |> List.sort_uniq compare
  in
  let needed_by_all nr =
    Array.for_all not
      (Completeness.supported_packages ~scope:Completeness.Syscalls_only
         store ~supported:(function
           | Api.Syscall s -> s <> nr
           | _ -> true))
  in
  let core = List.filter needed_by_all used in
  if core = [] then Alcotest.fail "no universal core: the gate is untested";
  let everything =
    Array.to_list Syscall_table.all
    |> List.map (fun (e : Syscall_table.entry) -> e.Syscall_table.nr)
  in
  (* the core itself and every superset of it pass; the core minus
     any one member, and most random subsets, do not *)
  let random = random_subsets ~n:150 ~max_size:200 in
  let queries =
    everything :: core :: [] :: random
    @ List.map (fun c -> List.filter (fun nr -> nr <> c) core) core
    @ List.map (fun nrs -> core @ nrs) random
  in
  let gated =
    List.length
      (List.filter
         (fun nrs -> List.exists (fun c -> not (List.mem c nrs)) core)
         queries)
  in
  let ungated = List.length queries - gated in
  if gated = 0 || ungated = 0 then
    Alcotest.failf "query set exercises one side only (%d gated, %d not)"
      gated ungated;
  let gated0 = Stage.counter "query:eval-gated"
  and eval0 = Stage.counter "query:eval" in
  List.iter (fun nrs -> ignore (Query.eval_syscalls idx nrs)) queries;
  Alcotest.(check int) "gated calls" gated
    (Stage.counter "query:eval-gated" - gated0);
  Alcotest.(check int) "class-tested calls" ungated
    (Stage.counter "query:eval" - eval0)

(* --- JSON codec -------------------------------------------------------- *)

let parse_exn s =
  match Json.parse s with
  | Ok v -> v
  | Error msg -> Alcotest.failf "parse %S: %s" s msg

let test_json_roundtrip () =
  let cases =
    [ "null"; "true"; "false"; "0"; "-17"; "3.5"; "\"\"";
      "\"a b\\\"c\\\\d\""; "[]"; "[1,2,3]"; "{}";
      "{\"a\":1,\"b\":[true,null],\"c\":{\"d\":\"e\"}}" ]
  in
  List.iter
    (fun s ->
      let v = parse_exn s in
      Alcotest.(check string)
        ("re-parse " ^ s)
        (Json.to_string v)
        (Json.to_string (parse_exn (Json.to_string v))))
    cases;
  (* escapes and unicode decode to the right characters *)
  (match parse_exn "\"\\u0041\\u00e9\\ud83d\\ude00\\n\"" with
   | Json.Str s -> Alcotest.(check string) "unicode" "A\xc3\xa9\xf0\x9f\x98\x80\n" s
   | _ -> Alcotest.fail "expected a string");
  (* numbers survive round-trips exactly *)
  (match parse_exn "0.1" with
   | Json.Num f -> Alcotest.(check bool) "0.1 exact" true (f = 0.1)
   | _ -> Alcotest.fail "expected a number")

let test_json_rejects () =
  let bad =
    [ ""; "{"; "}"; "[1,"; "[1 2]"; "{\"a\"}"; "{\"a\":}"; "tru";
      "\"unterminated"; "\"bad \\q escape\""; "1 2"; "{\"a\":1} trailing";
      "nan"; "--1"; "\"\\ud83d\"" ]
  in
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok v ->
        Alcotest.failf "parse %S unexpectedly gave %s" s (Json.to_string v)
      | Error _ -> ())
    bad

(* Random values for the indented printer: finite floats of every
   magnitude, and short strings dense in control characters, quotes
   and backslashes. *)
let gen_json =
  QCheck2.Gen.(
    let num =
      oneof
        [ map (fun f -> if Float.is_finite f then f else 0.5) float;
          map float_of_int int;
          float_range (-1000.0) 1000.0 ]
    in
    let str =
      string_size
        ~gen:(oneof [ char_range '\000' '\031'; oneofl [ '"'; '\\' ]; char ])
        (int_range 0 8)
    in
    sized
    @@ fix (fun self n ->
           let leaf =
             oneof
               [ return Json.Null;
                 map (fun b -> Json.Bool b) bool;
                 map (fun f -> Json.Num f) num;
                 map (fun s -> Json.Str s) str ]
           in
           if n <= 0 then leaf
           else
             let items = list_size (int_range 0 4) (self (n / 4)) in
             oneof
               [ leaf;
                 map (fun l -> Json.Arr l) items;
                 map
                   (fun l -> Json.Obj l)
                   (list_size (int_range 0 4) (pair str (self (n / 4)))) ]))

let prop_indented_roundtrip =
  QCheck2.Test.make ~count:1000 ~name:"indented printing parses back"
    ~print:Json.to_string gen_json (fun j ->
      Json.parse (Json.to_string_indented j) = Ok j)

(* --- serve protocol ---------------------------------------------------- *)

let respond line = parse_exn (Serve.handle_line (index ()) line)

let get name v =
  match Json.member name v with
  | Some x -> x
  | None -> Alcotest.failf "response lacks %S: %s" name (Json.to_string v)

let is_ok v = match get "ok" v with Json.Bool b -> b | _ -> false

let error_kind v =
  match Json.member "kind" (get "error" v) with
  | Some (Json.Str k) -> k
  | _ -> Alcotest.failf "no error kind in %s" (Json.to_string v)

let test_serve_ops () =
  let r = respond {|{"op":"ping","id":42}|} in
  Alcotest.(check bool) "ping ok" true (is_ok r);
  (match get "id" r with
   | Json.Num f -> Alcotest.(check (float 0.0)) "id echoed" 42.0 f
   | _ -> Alcotest.fail "id not echoed");
  let r = respond {|{"op":"stats"}|} in
  Alcotest.(check bool) "stats ok" true (is_ok r);
  (match get "n_packages" r with
   | Json.Num f ->
     Alcotest.(check int) "stats package count"
       (Array.length (store ()).Store.packages)
       (int_of_float f)
   | _ -> Alcotest.fail "n_packages missing");
  let r = respond {|{"op":"importance","api":"read"}|} in
  Alcotest.(check bool) "importance ok" true (is_ok r);
  (match get "importance" r with
   | Json.Num f ->
     check_close "served importance" f
       (Importance.importance (store ()) (Api.Syscall 0))
   | _ -> Alcotest.fail "importance missing");
  let r = respond {|{"op":"completeness","syscalls":[0,1,2,3]}|} in
  (match get "completeness" r with
   | Json.Num f ->
     check_close "served completeness" f
       (Completeness.of_syscall_set (store ()) [ 0; 1; 2; 3 ])
   | _ -> Alcotest.fail "completeness missing");
  let r = respond {|{"op":"top","n":5}|} in
  (match get "syscalls" r with
   | Json.Arr l -> Alcotest.(check int) "top 5 rows" 5 (List.length l)
   | _ -> Alcotest.fail "syscalls missing");
  let r = respond {|{"op":"dependents","api":"syscall:0","limit":2}|} in
  (match get "packages" r with
   | Json.Arr l ->
     Alcotest.(check bool) "dependents limited" true (List.length l <= 2)
   | _ -> Alcotest.fail "packages missing")

let test_serve_errors () =
  (* malformed JSON never kills the loop: it answers with a parse error *)
  let r = respond "this is not json" in
  Alcotest.(check bool) "parse error is a response" false (is_ok r);
  Alcotest.(check string) "parse kind" "parse" (error_kind r);
  let r = respond {|{"op":"explode"}|} in
  Alcotest.(check bool) "unknown op rejected" false (is_ok r);
  Alcotest.(check string) "unknown-op kind" "unknown-op" (error_kind r);
  let r = respond {|{"noop":1}|} in
  Alcotest.(check bool) "missing op rejected" false (is_ok r);
  let r = respond {|{"op":"importance"}|} in
  Alcotest.(check bool) "missing api rejected" false (is_ok r);
  let r = respond {|{"op":"importance","api":"syscall:zero"}|} in
  Alcotest.(check bool) "bad api string rejected" false (is_ok r);
  let r = respond {|{"op":"completeness","syscalls":"read"}|} in
  Alcotest.(check bool) "non-array syscalls rejected" false (is_ok r);
  (* error responses still echo the request id *)
  let r = respond {|{"op":"explode","id":7}|} in
  (match get "id" r with
   | Json.Num f -> Alcotest.(check (float 0.0)) "id echoed on error" 7.0 f
   | _ -> Alcotest.fail "id not echoed on error")

let test_serve_retired_batch () =
  (* the retired batch and hello ops are just ops this version does
     not know *)
  Alcotest.(check string) "batch golden"
    {|{"id":5,"ok":false,"error":{"kind":"unknown-op","msg":"unknown op \"batch\""}}|}
    (Serve.handle_line (index ())
       {|{"op":"batch","id":5,"requests":[{"op":"ping","id":6}]}|});
  Alcotest.(check string) "hello golden"
    {|{"id":6,"ok":false,"error":{"kind":"unknown-op","msg":"unknown op \"hello\""}}|}
    (Serve.handle_line (index ()) {|{"op":"hello","id":6,"versions":[1]}|})

let test_serve_loop () =
  (* full loop over real channels: blank lines skipped, one JSON line
     out per JSON line in, EOF terminates *)
  let input = {|{"op":"ping"}

not json
{"op":"stats"}
|} in
  let in_path = Filename.temp_file "lapis-serve" ".in" in
  let out_path = Filename.temp_file "lapis-serve" ".out" in
  Fun.protect
    ~finally:(fun () -> Sys.remove in_path; Sys.remove out_path)
    (fun () ->
      Out_channel.with_open_bin in_path (fun oc ->
          output_string oc input);
      In_channel.with_open_bin in_path (fun ic ->
          Out_channel.with_open_bin out_path (fun oc ->
              Serve.loop (index ()) ic oc));
      let lines =
        In_channel.with_open_bin out_path In_channel.input_lines
      in
      Alcotest.(check int) "three responses" 3 (List.length lines);
      match List.map parse_exn lines with
      | [ a; b; c ] ->
        Alcotest.(check bool) "ping ok" true (is_ok a);
        Alcotest.(check bool) "bad line answered" false (is_ok b);
        Alcotest.(check bool) "loop continues after an error" true (is_ok c)
      | _ -> Alcotest.fail "unreachable")

let test_canonical_key () =
  let key s =
    match Core.Query.Protocol.request_of_json (parse_exn s) with
    | Ok r -> Core.Query.Protocol.canonical_key r
    | Error _ -> Alcotest.failf "canonical_key: %S did not parse" s
  in
  (* the id never participates in the key *)
  Alcotest.(check string) "id stripped"
    (key {|{"op":"ping"}|})
    (key {|{"op":"ping","id":42}|});
  (* the three spellings of "no phase filter" share one cache entry *)
  let absent = key {|{"op":"completeness","syscalls":[0,1]}|} in
  Alcotest.(check string) {|"all" collapses to absent|} absent
    (key {|{"op":"completeness","syscalls":[0,1],"phase":"all"}|});
  Alcotest.(check string) {|"" collapses to absent|} absent
    (key {|{"op":"completeness","syscalls":[0,1],"phase":""}|});
  (* a real phase filter must NOT collapse *)
  if key {|{"op":"completeness","syscalls":[0,1],"phase":"init"}|} = absent
  then Alcotest.fail "phase=init collapsed into the unfiltered key";
  if
    key {|{"op":"completeness","syscalls":[0,1],"phase":"init"}|}
    = key {|{"op":"completeness","syscalls":[0,1],"phase":"serving"}|}
  then Alcotest.fail "init and serving share a cache key";
  (* field order is irrelevant *)
  Alcotest.(check string) "field order canonicalized"
    (key {|{"op":"top","n":5}|})
    (key {|{"n":5,"op":"top"}|});
  (* and the collapse is observable end to end: the default-phase
     spellings return identical answers, so caching them together is
     sound (this was the stale-result bug: same key, different phase
     would have been unsound — assert the answers really match) *)
  let strip_id j =
    match j with
    | Json.Obj fs -> Json.Obj (List.filter (fun (k, _) -> k <> "id") fs)
    | x -> x
  in
  let a = strip_id (respond {|{"op":"top","n":3}|}) in
  let b = strip_id (respond {|{"op":"top","n":3,"phase":"all"}|}) in
  Alcotest.(check string) "collapsed keys agree on the answer"
    (Json.to_string a) (Json.to_string b)

let () =
  Alcotest.run "query"
    [ ( "index-vs-oracle",
        [ Alcotest.test_case "importance" `Quick
            test_importance_matches_oracle;
          Alcotest.test_case "ranking" `Quick test_ranking_matches_oracle;
          Alcotest.test_case "subset completeness" `Quick
            test_subset_completeness_matches_oracle;
          Alcotest.test_case "predicate completeness" `Quick
            test_predicate_completeness_matches_oracle;
          Alcotest.test_case "dependents" `Quick test_dependents_ranked;
          Alcotest.test_case "sharded eval" `Quick
            test_sharded_matches_unsharded;
          Alcotest.test_case "core gate counts" `Quick test_core_gate_counts
        ] );
      ( "json",
        [ Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "rejects" `Quick test_json_rejects;
          QCheck_alcotest.to_alcotest prop_indented_roundtrip ] );
      ( "serve",
        [ Alcotest.test_case "operations" `Quick test_serve_ops;
          Alcotest.test_case "errors" `Quick test_serve_errors;
          Alcotest.test_case "retired batch op" `Quick test_serve_retired_batch;
          Alcotest.test_case "loop" `Quick test_serve_loop;
          Alcotest.test_case "canonical key" `Quick test_canonical_key ] )
    ]
