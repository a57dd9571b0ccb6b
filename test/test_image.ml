(* Tests for format-4 index images: a built index serialized flat,
   loaded back either by copy ([of_image]) or by mapping the file
   ([load_image]), must answer every query bit-identically to the
   index it came from — and reject every kind of damage with a
   structured error instead of an exception. *)

module Api = Core.Apidb.Api
module Syscall_table = Core.Apidb.Syscall_table
module Query = Core.Query.Engine
module Snapshot = Core.Db.Snapshot
module Rng = Core.Distro.Rng
module Stage = Core.Perf.Stage

let env = lazy (Core.Study.Env.create_small ())
let index () = (Lazy.force env).Core.Study.Env.index

let image = lazy (
  match Query.to_image_string ~seed:42 ~source_key:"test" (index ()) with
  | Ok s -> s
  | Error e -> Alcotest.failf "to_image_string: %a" Snapshot.pp_error e)

let of_image_exn ?verify s =
  match Query.of_image ?verify s with
  | Ok t -> t
  | Error e -> Alcotest.failf "of_image: %a" Snapshot.pp_error e

let check_exact name a b =
  if not (Float.equal a b) then
    Alcotest.failf "%s: built %.17g vs loaded %.17g" name a b

let all_nrs =
  Array.to_list Syscall_table.all
  |> List.map (fun (e : Syscall_table.entry) -> e.Syscall_table.nr)

let random_subsets ~n ~max_size =
  let rng = Rng.create 777 in
  List.init n (fun _ ->
      let k = 1 + Rng.int rng max_size in
      Rng.sample rng k all_nrs)

let phases = [ Query.All; Query.Init; Query.Serving ]

(* The router's merge: the partials of [shard_ranges] summed in range
   order over the shared denominator. *)
let scattered ~shards ~phase t nrs =
  let _, den = Query.eval_syscalls_partial ~phase t nrs ~lo:0 ~hi:0 in
  let num =
    List.fold_left
      (fun acc (lo, hi) ->
        acc +. fst (Query.eval_syscalls_partial ~phase t nrs ~lo ~hi))
      0.0
      (Query.shard_ranges (Query.n_packages t) shards)
  in
  if den = 0.0 then 0.0 else num /. den

(* Every point metric, every eval path, every phase: loaded values
   must equal the built index's bit for bit (scattered sums included —
   the shard ranges and per-range fold orders are identical). *)
let check_agreement built loaded =
  Alcotest.(check int) "n_packages" (Query.n_packages built)
    (Query.n_packages loaded);
  Alcotest.(check int) "n_apis" (Query.n_apis built) (Query.n_apis loaded);
  Alcotest.(check int) "n_components" (Query.n_components built)
    (Query.n_components loaded);
  Alcotest.(check int) "n_binaries" (Query.n_binaries built)
    (Query.n_binaries loaded);
  Alcotest.(check int) "total_installs" (Query.total_installs built)
    (Query.total_installs loaded);
  Alcotest.(check (list int)) "ranking" (Query.ranking built)
    (Query.ranking loaded);
  List.iter
    (fun phase ->
      let p = Query.phase_to_string phase in
      List.iter
        (fun nr ->
          let api = Api.Syscall nr in
          check_exact
            (Printf.sprintf "importance %d %s" nr p)
            (Query.importance ~phase built api)
            (Query.importance ~phase loaded api);
          check_exact
            (Printf.sprintf "survival %d %s" nr p)
            (Query.survival ~phase built api)
            (Query.survival ~phase loaded api))
        all_nrs;
      List.iteri
        (fun i nrs ->
          check_exact
            (Printf.sprintf "subset %d %s" i p)
            (Query.eval_syscalls ~phase built nrs)
            (Query.eval_syscalls ~phase loaded nrs);
          check_exact
            (Printf.sprintf "sharded subset %d %s" i p)
            (scattered ~shards:3 ~phase built nrs)
            (scattered ~shards:3 ~phase loaded nrs))
        (random_subsets ~n:40 ~max_size:150))
    phases;
  List.iter
    (fun nr ->
      let api = Api.Syscall nr in
      check_exact
        (Printf.sprintf "unweighted %d" nr)
        (Query.unweighted built api) (Query.unweighted loaded api);
      check_exact
        (Printf.sprintf "unweighted_elf %d" nr)
        (Query.unweighted_elf built api)
        (Query.unweighted_elf loaded api))
    all_nrs;
  let pred = function Api.Syscall nr -> nr < 100 | _ -> true in
  check_exact "eval_pred"
    (Query.eval_pred built ~supported:pred)
    (Query.eval_pred loaded ~supported:pred);
  (* dependents of the most important syscall *)
  let top = Api.Syscall (List.hd (Query.ranking built)) in
  Alcotest.(check (list (pair string (float 0.0))))
    "dependents_ranked"
    (Query.dependents_ranked ~limit:50 built top)
    (Query.dependents_ranked ~limit:50 loaded top)

let check_bins_equal built loaded =
  let get t =
    match Query.bins t with
    | Ok rows -> rows
    | Error e -> Alcotest.failf "bins: %a" Snapshot.pp_error e
  in
  let a = get built and b = get loaded in
  Alcotest.(check int) "bin rows" (Array.length a) (Array.length b);
  Array.iteri
    (fun i (x : Query.bin_sets) ->
      let y = b.(i) in
      Alcotest.(check string) "digest"
        (Digest.to_hex x.Query.bs_digest)
        (Digest.to_hex y.Query.bs_digest);
      List.iter
        (fun (what, s1, s2) ->
          if not (Api.Set.equal s1 s2) then
            Alcotest.failf "bin %d: %s sets differ" i what)
        [
          ("all", x.Query.bs_all, y.Query.bs_all);
          ("init", x.Query.bs_init, y.Query.bs_init);
          ("serving", x.Query.bs_serving, y.Query.bs_serving);
        ])
    a

let test_round_trip_memory () =
  let built = index () in
  let loaded = of_image_exn (Lazy.force image) in
  Alcotest.(check bool) "not mapped source" false (Query.is_mapped built);
  check_agreement built loaded;
  check_bins_equal built loaded;
  (* digest lookup *)
  match Query.bins built with
  | Error e -> Alcotest.failf "bins: %a" Snapshot.pp_error e
  | Ok rows ->
    Alcotest.(check bool) "has bins" true (Array.length rows > 0);
    let d = rows.(0).Query.bs_digest in
    (match Query.find_bin loaded d with
     | Ok (Some b) ->
       if not (Api.Set.equal b.Query.bs_all rows.(0).Query.bs_all) then
         Alcotest.fail "find_bin: wrong row"
     | Ok None -> Alcotest.fail "find_bin: digest absent"
     | Error e -> Alcotest.failf "find_bin: %a" Snapshot.pp_error e);
    (match Query.find_bin loaded (Digest.string "no such binary") with
     | Ok None -> ()
     | Ok (Some _) -> Alcotest.fail "find_bin: phantom row"
     | Error e -> Alcotest.failf "find_bin: %a" Snapshot.pp_error e)

let test_round_trip_mapped () =
  let built = index () in
  let path = Filename.temp_file "lapis_image" ".idx" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  (match Query.save_image ~seed:42 ~source_key:"test" path built with
  | Ok () -> ()
  | Error e -> Alcotest.failf "save_image: %a" Snapshot.pp_error e);
  let loaded =
    match Query.load_image path with
    | Ok t -> t
    | Error e -> Alcotest.failf "load_image: %a" Snapshot.pp_error e
  in
  Alcotest.(check bool) "mapped" true (Query.is_mapped loaded);
  check_agreement built loaded;
  check_bins_equal built loaded;
  (* a second mapping of the same file agrees too *)
  let again =
    match Query.load_image ~verify:false path with
    | Ok t -> t
    | Error e -> Alcotest.failf "load_image(no verify): %a" Snapshot.pp_error e
  in
  check_exact "replica agreement"
    (Query.eval_syscalls loaded all_nrs)
    (Query.eval_syscalls again all_nrs)

(* --- a cold open answers from the mapping ---------------------------

   [with_cold_image f] saves the built index as an image, resets the
   stage registry, maps the image and sweeps every op in every phase
   against the built index (the same sweep as the mapped round trip),
   then hands [f] the path and the mapped index. *)
let with_cold_image f =
  let built = index () in
  let path = Filename.temp_file "lapis_image" ".idx" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  (match Query.save_image ~seed:42 ~source_key:"test" path built with
  | Ok () -> ()
  | Error e -> Alcotest.failf "save_image: %a" Snapshot.pp_error e);
  Stage.reset ();
  let loaded =
    match Query.load_image path with
    | Ok t -> t
    | Error e -> Alcotest.failf "load_image: %a" Snapshot.pp_error e
  in
  check_agreement built loaded;
  check_bins_equal built loaded;
  f path loaded

let test_cold_open_builds_nothing () =
  (* what made a cold open cheap is that it decodes no rows and builds
     no index: both stages must not have run at all *)
  with_cold_image @@ fun _ _ ->
  Alcotest.(check int) "image-load entries" 1 (Stage.entries "image-load");
  Alcotest.(check int) "query:index-build entries" 0
    (Stage.entries "query:index-build");
  Alcotest.(check int) "snapshot-load entries" 0
    (Stage.entries "snapshot-load")

(* /proc/self/smaps lists each mapping as a header line ending in the
   mapped file's path, followed by "Key: value" lines. For each mapping
   of [path]: its header and its "Key: N kB" sizes. *)
let smaps_of path =
  let is_header l =
    match String.index_opt l ' ' with
    | Some i -> String.contains (String.sub l 0 i) '-'
    | None -> false
  in
  In_channel.with_open_text "/proc/self/smaps" In_channel.input_lines
  |> List.fold_left
       (fun acc l ->
         match acc with
         | _ when is_header l -> (l, []) :: acc
         | (h, sizes) :: rest -> (
           match Scanf.sscanf_opt l "%s@: %d kB%!" (fun k v -> (k, v)) with
           | Some kv -> (h, kv :: sizes) :: rest
           | None -> acc)
         | [] -> acc)
       []
  |> List.filter (fun (h, _) -> String.ends_with ~suffix:(" " ^ path) h)

let test_mapped_pages_stay_clean () =
  (* why replicas of one image share memory: after the whole sweep the
     image is still mapped, and not one of its pages has been copied
     into the process (no anonymous, no privately dirtied page) *)
  with_cold_image @@ fun path loaded ->
  (* a mapping nothing references any more is unmapped here, so only
     the ones the index really answers from are listed *)
  Gc.full_major ();
  let maps = smaps_of path in
  if maps = [] then Alcotest.failf "no mapping of %s in /proc/self/smaps" path;
  List.iter
    (fun (header, sizes) ->
      List.iter
        (fun key ->
          Alcotest.(check (option int))
            (key ^ " kB: " ^ header)
            (Some 0) (List.assoc_opt key sizes))
        [ "Anonymous"; "Private_Dirty" ])
    maps;
  (* [loaded] is used up to here, so the collection above could not
     unmap what it answers from *)
  Alcotest.(check bool) "still mapped" true (Query.is_mapped loaded)

let test_file_version_routes () =
  let path = Filename.temp_file "lapis_image" ".idx" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  (match Query.save_image path (index ()) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "save_image: %a" Snapshot.pp_error e);
  (match Snapshot.file_version path with
  | Ok v -> Alcotest.(check int) "image version" Query.image_version v
  | Error e -> Alcotest.failf "file_version: %a" Snapshot.pp_error e);
  (* the row-snapshot decoder must refuse it as a version it cannot
     rebuild rows from, not misparse it *)
  match Snapshot.of_string (Lazy.force image) with
  | Error (Snapshot.Unsupported_version 4) -> ()
  | Error e -> Alcotest.failf "of_string: wrong error %a" Snapshot.pp_error e
  | Ok _ -> Alcotest.fail "of_string: decoded an index image as rows"

(* --- damage: every mutation yields Error, never an exception ------- *)

let expect_error what = function
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "%s: accepted damaged image" what

let test_truncations () =
  let img = Lazy.force image in
  let n = String.length img in
  (* every prefix in the header, then coarse cuts through the body *)
  let cuts =
    List.init 48 (fun i -> i)
    @ List.init 16 (fun i -> (i + 1) * (n / 17))
    @ [ n - 1 ]
  in
  List.iter
    (fun k ->
      if k < n then
        expect_error
          (Printf.sprintf "truncated to %d" k)
          (Query.of_image (String.sub img 0 k)))
    cuts

let test_header_damage () =
  let img = Lazy.force image in
  let flip k =
    let b = Bytes.of_string img in
    Bytes.set b k (Char.chr (Char.code (Bytes.get b k) lxor 0xff));
    Bytes.to_string b
  in
  (match Query.of_image (flip 0) with
  | Error Snapshot.Not_snapshot -> ()
  | Error e -> Alcotest.failf "magic: wrong error %a" Snapshot.pp_error e
  | Ok _ -> Alcotest.fail "magic: accepted");
  (match Query.of_image (flip 8) with
  | Error (Snapshot.Unsupported_version _) -> ()
  | Error e -> Alcotest.failf "version: wrong error %a" Snapshot.pp_error e
  | Ok _ -> Alcotest.fail "version: accepted");
  (* a payload flip under verification is a digest mismatch *)
  (match Query.of_image (flip (String.length img - 3)) with
  | Error Snapshot.Digest_mismatch -> ()
  | Error e -> Alcotest.failf "payload flip: wrong error %a" Snapshot.pp_error e
  | Ok _ -> Alcotest.fail "payload flip: accepted");
  (* trailing junk *)
  expect_error "trailing junk" (Query.of_image (img ^ "junk"));
  (* unrelated bytes *)
  expect_error "junk" (Query.of_image "not an image at all")

let test_section_table_damage () =
  let img = Lazy.force image in
  (* With verification off, structural validation must still catch a
     corrupted section table: misaligned and out-of-bounds offsets. *)
  let set_word file_off v =
    let b = Bytes.of_string img in
    Bytes.set_int64_le b file_off (Int64.of_int v);
    Bytes.to_string b
  in
  (* first section entry: id at payload word 2, offset at word 3 *)
  let off_pos = 40 + (8 * 3) in
  let orig_off = Int64.to_int (String.get_int64_le img off_pos) in
  (match Query.of_image ~verify:false (set_word off_pos (orig_off + 4)) with
  | Error (Snapshot.Corrupt _) -> ()
  | Error e -> Alcotest.failf "unaligned: wrong error %a" Snapshot.pp_error e
  | Ok _ -> Alcotest.fail "unaligned offset: accepted");
  (match Query.of_image ~verify:false (set_word off_pos (1 lsl 40)) with
  | Error (Snapshot.Truncated _) -> ()
  | Error e -> Alcotest.failf "oob: wrong error %a" Snapshot.pp_error e
  | Ok _ -> Alcotest.fail "out-of-bounds offset: accepted");
  (* section count word *)
  expect_error "huge section count"
    (Query.of_image ~verify:false (set_word 48 1_000_000))

let test_bins_damage () =
  let img = Lazy.force image in
  (* find the bins section (id 10) in the table and splat its first
     bytes with 0xFF: the pool count varint becomes astronomically
     large, which the lazy decode must reject *)
  let word k = Int64.to_int (String.get_int64_le img (40 + (8 * k))) in
  let n_sections = word 1 in
  let boff = ref (-1) in
  for i = 0 to n_sections - 1 do
    if word (2 + (3 * i)) = 10 then boff := word (2 + (3 * i) + 1)
  done;
  if !boff < 0 then Alcotest.fail "no bins section in image";
  let b = Bytes.of_string img in
  for k = 0 to 7 do
    Bytes.set b (40 + !boff + k) '\xff'
  done;
  let t = of_image_exn ~verify:false (Bytes.to_string b) in
  (* queries still work — only the bins decode is poisoned *)
  ignore (Query.eval_syscalls t all_nrs);
  match Query.bins t with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bins: decoded splatted section"

(* --- range slices --------------------------------------------------

   The slice contract ([to_image_string ~range]): partial sweeps over
   in-slice ranges are bit-identical to the full image, point metrics
   stay whole-world exact, and dependents list in-slice packages only
   — so the per-slice lists, merged and re-sorted with the ranked
   comparator, reproduce the full listing. *)

let slice_exn range =
  match
    Query.to_image_string ~seed:42 ~source_key:"test" ~range (index ())
  with
  | Ok s -> of_image_exn s
  | Error e -> Alcotest.failf "to_image_string ~range: %a" Snapshot.pp_error e

let check_partial_exact name full sliced ~lo ~hi =
  List.iter
    (fun phase ->
      let p = Query.phase_to_string phase in
      List.iteri
        (fun i nrs ->
          let num_f, den_f =
            Query.eval_syscalls_partial ~phase full nrs ~lo ~hi
          in
          let num_s, den_s =
            Query.eval_syscalls_partial ~phase sliced nrs ~lo ~hi
          in
          check_exact (Printf.sprintf "%s num %d %s" name i p) num_f num_s;
          check_exact (Printf.sprintf "%s den %d %s" name i p) den_f den_s)
        (random_subsets ~n:12 ~max_size:100))
    phases

let test_slices_example () =
  let full = index () in
  let n = Query.n_packages full in
  let ranges = Query.shard_ranges n 3 in
  let slices = List.map (fun r -> (r, slice_exn r)) ranges in
  List.iter
    (fun ((lo, hi), sliced) ->
      Alcotest.(check bool) "is_sliced" true (Query.is_sliced sliced);
      Alcotest.(check int) "slice_lo" lo (Query.slice_lo sliced);
      Alcotest.(check int) "slice_hi" hi (Query.slice_hi sliced);
      (* point metrics are whole-world exact on a slice *)
      Alcotest.(check (list int))
        "ranking" (Query.ranking full) (Query.ranking sliced);
      List.iter
        (fun phase ->
          let p = Query.phase_to_string phase in
          List.iter
            (fun nr ->
              let api = Api.Syscall nr in
              check_exact
                (Printf.sprintf "importance %d %s" nr p)
                (Query.importance ~phase full api)
                (Query.importance ~phase sliced api);
              check_exact
                (Printf.sprintf "survival %d %s" nr p)
                (Query.survival ~phase full api)
                (Query.survival ~phase sliced api))
            all_nrs)
        phases;
      (* the whole slice, a strict sub-range, and the empty range *)
      check_partial_exact "whole slice" full sliced ~lo ~hi;
      if hi - lo > 2 then
        check_partial_exact "sub-range" full sliced ~lo:(lo + 1) ~hi:(hi - 1);
      check_partial_exact "empty range" full sliced ~lo ~hi:lo)
    slices;
  (* dependents: per-slice listings merge into the full listing *)
  let top = Api.Syscall (List.hd (Query.ranking full)) in
  let merged =
    List.concat_map (fun (_, s) -> Query.dependents_ranked s top) slices
    |> List.sort (fun (n1, p1) (n2, p2) ->
           match Float.compare p2 p1 with
           | 0 -> String.compare n1 n2
           | c -> c)
  in
  Alcotest.(check (list (pair string (float 0.0))))
    "dependents merge" (Query.dependents_ranked full top) merged

let test_slice_full_width () =
  (* the full-width "slice" covers everything: not a proper slice, and
     every query — bins included — agrees with the built index *)
  let full = index () in
  let sliced = slice_exn (0, Query.n_packages full) in
  Alcotest.(check bool) "not sliced" false (Query.is_sliced sliced);
  check_agreement full sliced;
  check_bins_equal full sliced

let test_slice_bytes () =
  (* the shared per-API planes ride along whole in every slice, but the
     per-package planes are cut: a fleet's slices together stay within
     1.25x of the full image *)
  let full = index () in
  let bytes ?range () =
    match
      Query.to_image_string ~seed:42 ~source_key:"test" ?range full
    with
    | Ok s -> String.length s
    | Error e -> Alcotest.failf "to_image_string: %a" Snapshot.pp_error e
  in
  let whole = bytes () in
  let sliced =
    List.fold_left
      (fun acc range -> acc + bytes ~range ())
      0
      (Query.shard_ranges (Query.n_packages full) 4)
  in
  if float_of_int sliced > 1.25 *. float_of_int whole then
    Alcotest.failf "4 slices total %d B, above 1.25x the full %d B" sliced
      whole

let test_qcheck_slice_partials () =
  let full = index () in
  let n = Query.n_packages full in
  let gen =
    QCheck2.Gen.(
      let* lo = int_bound n in
      let* hi = int_range lo n in
      let* a = int_range lo hi in
      let* b = int_range a hi in
      let* phase = oneofl [ Query.All; Query.Init; Query.Serving ] in
      let* nrs = list_size (int_bound 80) (int_bound 450) in
      return ((lo, hi), (a, b), phase, nrs))
  in
  let cell =
    QCheck2.Test.make ~count:60 ~name:"slice partials bit-identical" gen
      (fun ((lo, hi), (a, b), phase, nrs) ->
        let sliced = slice_exn (lo, hi) in
        let num_f, den_f =
          Query.eval_syscalls_partial ~phase full nrs ~lo:a ~hi:b
        in
        let num_s, den_s =
          Query.eval_syscalls_partial ~phase sliced nrs ~lo:a ~hi:b
        in
        Float.equal num_f num_s && Float.equal den_f den_s)
  in
  QCheck_alcotest.to_alcotest cell

(* One file mapping for the whole suite. The file is removed once
   mapped; the mapping outlives it. *)
let mapped = lazy (
  let path = Filename.temp_file "lapis_image" ".idx" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Lazy.force image));
  match Query.load_image path with
  | Ok t -> t
  | Error e -> Alcotest.failf "load_image: %a" Snapshot.pp_error e)

let test_qcheck_heap_map_agree () =
  let built = index () in
  let loaded = Lazy.force mapped in
  let gen =
    QCheck2.Gen.(
      pair
        (oneofl [ Query.All; Query.Init; Query.Serving ])
        (list_size (int_bound 120) (int_bound 450)))
  in
  let cell =
    QCheck2.Test.make ~count:300 ~name:"heap vs map eval_syscalls" gen
      (fun (phase, nrs) ->
        Float.equal
          (Query.eval_syscalls ~phase built nrs)
          (Query.eval_syscalls ~phase loaded nrs))
  in
  QCheck_alcotest.to_alcotest cell

let () =
  Alcotest.run "image"
    [
      ( "round-trip",
        [
          Alcotest.test_case "memory" `Quick test_round_trip_memory;
          Alcotest.test_case "mapped file" `Quick test_round_trip_mapped;
          Alcotest.test_case "version routing" `Quick test_file_version_routes;
        ] );
      ( "cold-open",
        [
          Alcotest.test_case "builds no index" `Quick
            test_cold_open_builds_nothing;
          Alcotest.test_case "mapped pages stay clean" `Quick
            test_mapped_pages_stay_clean;
        ] );
      ( "damage",
        [
          Alcotest.test_case "truncations" `Quick test_truncations;
          Alcotest.test_case "header" `Quick test_header_damage;
          Alcotest.test_case "section table" `Quick test_section_table_damage;
          Alcotest.test_case "bins section" `Quick test_bins_damage;
        ] );
      ( "slices",
        [
          Alcotest.test_case "example ranges" `Quick test_slices_example;
          Alcotest.test_case "full width" `Quick test_slice_full_width;
          Alcotest.test_case "4 slices within 1.25x the image" `Quick
            test_slice_bytes;
        ] );
      ( "qcheck",
        [ test_qcheck_heap_map_agree (); test_qcheck_slice_partials () ] );
    ]
