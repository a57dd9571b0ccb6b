(* Tests for the mutational fuzz harness: campaigns are deterministic
   (replayable from the seed), never crash, account for every case,
   and the end-to-end pipeline quarantines corrupted package files
   instead of dying. *)

module H = Core.Fuzz.Harness
module M = Core.Fuzz.Mutate
module Rng = Core.Distro.Rng

let small_config =
  { H.cases = 400; base_packages = 8; seed = 99 }

let total = List.fold_left (fun n (_, v) -> n + v) 0

let test_campaign_contract () =
  let r = H.run ~config:small_config () in
  Alcotest.(check int) "zero uncaught crashes" 0 (List.length r.H.r_crashes);
  Alcotest.(check int) "every case is ok or rejected" r.H.r_cases
    (r.H.r_ok + total r.H.r_rejected);
  Alcotest.(check bool) "mutations do reject some inputs" true
    (r.H.r_rejected <> []);
  Alcotest.(check bool) "some mutants still parse" true (r.H.r_ok > 0);
  (* every reject kind is from the structured taxonomy *)
  let known =
    List.map Core.Elf.Reader.kind_name Core.Elf.Reader.all_kinds
  in
  List.iter
    (fun (k, n) ->
      Alcotest.(check bool) ("taxonomy kind: " ^ k) true (List.mem k known);
      Alcotest.(check bool) ("positive count: " ^ k) true (n > 0))
    r.H.r_rejected

let test_campaign_deterministic () =
  (* same seed, same campaign: the printed seed is enough to replay *)
  let r1 = H.run ~config:small_config () in
  let r2 = H.run ~config:small_config () in
  Alcotest.(check int) "same survivors" r1.H.r_ok r2.H.r_ok;
  Alcotest.(check (list (pair string int)))
    "same rejects per kind" r1.H.r_rejected r2.H.r_rejected;
  Alcotest.(check (list (pair string int)))
    "same mutation mix" r1.H.r_mutations r2.H.r_mutations;
  Alcotest.(check (list (pair string int)))
    "same fuel spends" r1.H.r_fuel r2.H.r_fuel

let test_mutations_deterministic () =
  let base = String.init 4096 (fun i -> Char.chr (i land 0xFF)) in
  List.iter
    (fun kind ->
      let a = M.apply (Rng.create 5) kind base in
      let b = M.apply (Rng.create 5) kind base in
      Alcotest.(check string) (M.name kind ^ " replays") a b)
    M.all;
  (* these two are structurally guaranteed to change any large input:
     a flip inverts a bit, and no jump pattern occurs in the ramp *)
  List.iter
    (fun kind ->
      Alcotest.(check bool) (M.name kind ^ " changes the input") false
        (M.apply (Rng.create 6) kind base = base))
    [ M.Bit_flip; M.Text_self_jump ]

let test_pipeline_quarantine () =
  let s = H.pipeline_smoke ~seed:5 ~packages:15 ~victims:10 () in
  Alcotest.(check bool) "some package files were corrupted" true
    (s.H.s_mutated > 0);
  Alcotest.(check bool) "some corruptions are unconditionally fatal" true
    (s.H.s_forced > 0);
  let q = Core.Db.Pipeline.quarantined s.H.s_analyzed in
  Alcotest.(check bool)
    (Printf.sprintf "quarantine (%d) covers the forced corruptions (%d)" q
       s.H.s_forced)
    true (q >= s.H.s_forced);
  (* the run still completes: every package has its store row *)
  Alcotest.(check int) "all packages aggregated"
    (Core.Distro.Package.n_packages s.H.s_analyzed.Core.Db.Pipeline.dist)
    s.H.s_analyzed.Core.Db.Pipeline.store.Core.Db.Store.n_packages;
  (* the reject table names only known kinds *)
  let known =
    "analysis-crash"
    :: List.map Core.Elf.Reader.kind_name Core.Elf.Reader.all_kinds
  in
  List.iter
    (fun (k, n) ->
      Alcotest.(check bool) ("known reject kind: " ^ k) true
        (List.mem k known);
      Alcotest.(check bool) ("positive reject count: " ^ k) true (n > 0))
    s.H.s_analyzed.Core.Db.Pipeline.world.Core.Analysis.Resolve.stats
      .Core.Analysis.Resolve.rejects

let () =
  Alcotest.run "fuzz"
    [ ( "harness",
        [ Alcotest.test_case "campaign contract" `Quick
            test_campaign_contract;
          Alcotest.test_case "campaign determinism" `Quick
            test_campaign_deterministic;
          Alcotest.test_case "mutation determinism" `Quick
            test_mutations_deterministic ] );
      ( "pipeline",
        [ Alcotest.test_case "quarantine containment" `Quick
            test_pipeline_quarantine ] ) ]
