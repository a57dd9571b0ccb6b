(* Tests for temporal phase attribution: calibration against the
   generator's planted init/serving ground truth, the union invariant
   that keeps unphased results bit-identical, phase-filtered
   completeness monotonicity, and the snapshot phase fields
   (round-trip, plus the retired row formats 1-3 being refused). *)

module Api = Core.Apidb.Api
module Store = Core.Db.Store
module Snapshot = Core.Db.Snapshot
module Query = Core.Query.Engine
module Phases = Core.Study.Phases
module Rng = Core.Distro.Rng

let env = lazy (Core.Study.Env.create_small ())
let index () = (Lazy.force env).Core.Study.Env.index
let store () = (Lazy.force env).Core.Study.Env.store

(* --- calibration against planted ground truth -------------------------- *)

let test_audit_calibration () =
  let a = Phases.audit (Lazy.force env) in
  Alcotest.(check bool) "ground truth present" true (a.Phases.a_packages > 0);
  Alcotest.(check bool) "real two-phase programs planted" true
    (a.Phases.a_phased > 0);
  (* the conservative contract: widening is allowed, misses are not —
     a phase-restricted seccomp policy built on a false negative would
     kill the program at runtime *)
  Alcotest.(check int) "init false negatives"
    0 a.Phases.a_init.Phases.pa_fn;
  Alcotest.(check int) "serving false negatives"
    0 a.Phases.a_serving.Phases.pa_fn;
  Alcotest.(check int) "union violations" 0 a.Phases.a_union_violations;
  Alcotest.(check bool) "audit verdict" true (Phases.audit_passed a)

(* --- init ∪ serving = total -------------------------------------------- *)

let test_union_invariant_all_rows () =
  (* deterministic sweep over every row the pipeline produced: the
     phase slices must reassemble the exact footprint, on packages and
     binaries alike — this equality is what guarantees every unphased
     query result is unchanged by the phase machinery *)
  let store = store () in
  Array.iter
    (fun (p : Store.pkg_row) ->
      if
        not
          (Api.Set.equal
             (Api.Set.union p.Store.pr_init p.Store.pr_serving)
             p.Store.pr_apis)
      then Alcotest.failf "package %s: init ∪ serving <> total" p.Store.pr_name)
    store.Store.packages;
  List.iter
    (fun (r : Store.bin_row) ->
      if
        not
          (Api.Set.equal
             (Api.Set.union r.Store.br_init r.Store.br_serving)
             r.Store.br_resolved.Core.Analysis.Footprint.apis)
      then Alcotest.failf "binary %s: init ∪ serving <> resolved"
          r.Store.br_path)
    store.Store.bins

let qcheck_union_membership =
  (* membership view of the same invariant, over random (package, api)
     probes: an API is in the footprint iff it is in at least one
     phase slice *)
  QCheck2.Test.make ~count:500
    ~name:"api ∈ footprint <=> api ∈ init ∪ serving"
    QCheck2.Gen.(pair (int_range 0 100_000) (int_range 0 450))
    (fun (pi, nr) ->
      let store = store () in
      let p = store.Store.packages.(pi mod Array.length store.Store.packages) in
      let api = Api.Syscall nr in
      Api.Set.mem api p.Store.pr_apis
      = (Api.Set.mem api p.Store.pr_init
         || Api.Set.mem api p.Store.pr_serving))

(* --- phase-filtered completeness monotonicity -------------------------- *)

let qcheck_phase_completeness_monotone =
  (* a phase requirement set is a subset of the total footprint, so
     the same syscall set can only satisfy MORE of each package's
     phase needs: phased completeness >= unphased. (The issue text
     stated this inequality the other way round; subset-ness makes
     >= the only possible direction.) *)
  let gen_subset =
    QCheck2.Gen.(
      let* k = int_range 1 180 in
      let* seed = int_range 0 0x3fffffff in
      return (k, seed))
  in
  QCheck2.Test.make ~count:120 ~name:"phased completeness >= unphased"
    gen_subset (fun (k, seed) ->
      let idx = index () in
      let rng = Rng.create seed in
      let all_nrs =
        Array.to_list Core.Apidb.Syscall_table.all
        |> List.map (fun (e : Core.Apidb.Syscall_table.entry) ->
               e.Core.Apidb.Syscall_table.nr)
      in
      let nrs = Rng.sample rng k all_nrs in
      let all = Query.eval_syscalls idx nrs in
      let init = Query.eval_syscalls ~phase:Query.Init idx nrs in
      let serving = Query.eval_syscalls ~phase:Query.Serving idx nrs in
      init >= all -. 1e-12 && serving >= all -. 1e-12)

let test_phase_all_is_default () =
  (* ~phase:All must take exactly the unphased path *)
  let idx = index () in
  let nrs = [ 0; 1; 2; 9; 10; 158; 231 ] in
  Alcotest.(check bool) "All = default" true
    (Float.equal
       (Query.eval_syscalls ~phase:Query.All idx nrs)
       (Query.eval_syscalls idx nrs))

(* --- snapshot format 3: phases round-trip ------------------------------ *)

let test_snapshot_phase_roundtrip () =
  let analyzed = Core.Study.Env.analyzed_exn (Lazy.force env) in
  let snap = Snapshot.of_analyzed analyzed in
  let snap' =
    match Snapshot.of_string (Snapshot.to_string snap) with
    | Ok s -> s
    | Error e -> Alcotest.failf "decode: %a" Snapshot.pp_error e
  in
  let ps = snap.Snapshot.store.Store.packages in
  let ps' = snap'.Snapshot.store.Store.packages in
  Alcotest.(check int) "package count" (Array.length ps) (Array.length ps');
  let phased = ref 0 in
  Array.iteri
    (fun i (p : Store.pkg_row) ->
      let p' = ps'.(i) in
      if not (Api.Set.equal p.Store.pr_init p'.Store.pr_init) then
        Alcotest.failf "package %s: pr_init changed" p.Store.pr_name;
      if not (Api.Set.equal p.Store.pr_serving p'.Store.pr_serving) then
        Alcotest.failf "package %s: pr_serving changed" p.Store.pr_name;
      if not (Api.Set.equal p'.Store.pr_init p'.Store.pr_serving) then
        incr phased)
    ps;
  (* the round-trip must carry real attribution, not a degenerate
     everything-in-both-phases encoding *)
  Alcotest.(check bool) "some phased packages survive" true (!phased > 0)

(* --- retired row formats ---------------------------------------------- *)

(* Nothing writes row formats 1-3 any more, so a well-framed header
   carrying one of those versions must be refused on the version alone. *)
let test_retired_formats_unsupported () =
  List.iter
    (fun v ->
      let payload = "" in
      let b = Buffer.create 36 in
      Buffer.add_string b "LAPISNAP";
      Buffer.add_int32_le b (Int32.of_int v);
      Buffer.add_string b (Digest.string payload);
      Buffer.add_int64_le b (Int64.of_int (String.length payload));
      match Snapshot.of_string (Buffer.contents b) with
      | Error (Snapshot.Unsupported_version v') when v' = v -> ()
      | Error e -> Alcotest.failf "format %d: %a" v Snapshot.pp_error e
      | Ok _ -> Alcotest.failf "format %d decoded" v)
    [ 1; 2; 3 ]

let () =
  Alcotest.run "phase"
    [ ( "calibration",
        [ Alcotest.test_case "audit vs planted truth" `Quick
            test_audit_calibration ] );
      ( "union-invariant",
        [ Alcotest.test_case "all rows" `Quick test_union_invariant_all_rows;
          QCheck_alcotest.to_alcotest qcheck_union_membership ] );
      ( "completeness",
        [ QCheck_alcotest.to_alcotest qcheck_phase_completeness_monotone;
          Alcotest.test_case "All is the default path" `Quick
            test_phase_all_is_default ] );
      ( "snapshot",
        [ Alcotest.test_case "format-3 round-trip" `Quick
            test_snapshot_phase_roundtrip;
          Alcotest.test_case "formats 1-3 are unsupported" `Quick
            test_retired_formats_unsupported ] )
    ]
