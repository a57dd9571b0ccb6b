(* Tests for the living distribution: evolution determinism and
   Rng-split isolation, the incremental analysis cache (bit-identity
   with a from-scratch run plus the hit/miss counters), delta
   snapshots (round-trip, size, damage goldens) and the
   release-aware source_key. *)

module G = Core.Distro.Generator
module P = Core.Distro.Package
module Pipeline = Core.Db.Pipeline
module Snapshot = Core.Db.Snapshot
module Store = Core.Db.Store
module Stage = Core.Perf.Stage
module Query = Core.Query.Engine

let config = { G.default_config with n_packages = 60 }

(* worlds are deterministic, so build each release once and share *)
let r0 = lazy (G.evolve ~config ~release:0 ())
let r3 = lazy (G.evolve ~config ~release:3 ())

let file_digests (d : P.distribution) =
  List.concat_map
    (fun (pkg : P.t) ->
      List.map
        (fun (f : P.file) ->
          (pkg.P.name ^ "/" ^ f.P.path, Digest.string f.P.bytes))
        pkg.P.files)
    d.P.packages

(* --- evolution ---------------------------------------------------- *)

let test_release0_is_generate () =
  let evolved = Lazy.force r0 in
  let generated = G.generate ~config () in
  Alcotest.(check (list (pair string string)))
    "release 0 emits byte-for-byte what generate emits"
    (file_digests generated) (file_digests evolved)

let test_deterministic () =
  let a = Lazy.force r3 in
  let b = G.evolve ~config ~release:3 () in
  Alcotest.(check (list (pair string string)))
    "same seed + release -> identical bytes"
    (file_digests a) (file_digests b)

let test_release_recorded () =
  Alcotest.(check int) "release 0" 0 (Lazy.force r0).P.release;
  Alcotest.(check int) "release 3" 3 (Lazy.force r3).P.release

let test_churn_is_bounded () =
  (* Rng-split isolation: packages evolution never touched must be
     byte-identical across releases, and churn must touch something. *)
  let d0 = Lazy.force r0 and d3 = Lazy.force r3 in
  let tbl = Hashtbl.create 256 in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k v) (file_digests d0);
  let same = ref 0 and diff = ref 0 and fresh = ref 0 in
  List.iter
    (fun (k, v) ->
      match Hashtbl.find_opt tbl k with
      | Some v0 -> if v = v0 then incr same else incr diff
      | None -> incr fresh)
    (file_digests d3);
  if !same = 0 then Alcotest.fail "no package survived three releases";
  if !diff + !fresh = 0 then
    Alcotest.fail "three releases of churn changed nothing";
  let total = !same + !diff + !fresh in
  if !diff + !fresh > total / 2 then
    Alcotest.failf
      "churn touched %d/%d files — the default rate should leave most \
       of the world byte-identical"
      (!diff + !fresh) total

(* --- incremental pipeline ----------------------------------------- *)

let test_incremental_bit_identical () =
  let cache = Pipeline.new_cache () in
  let pc = { Pipeline.default with shared_cache = Some cache } in
  let h0 = Stage.counter "incremental:hits" in
  let m0 = Stage.counter "incremental:misses" in
  ignore (Pipeline.run ~config:pc (Lazy.force r0));
  let warm = Pipeline.cache_size cache in
  if warm = 0 then Alcotest.fail "release 0 populated nothing";
  let m_after_r0 = Stage.counter "incremental:misses" in
  Alcotest.(check int) "cold run: every payload is a miss" warm
    (m_after_r0 - m0);
  let inc = Pipeline.run ~config:pc (Lazy.force r3) in
  let scratch = Pipeline.run (Lazy.force r3) in
  Alcotest.(check string)
    "incremental run is bit-identical to from-scratch"
    (Snapshot.to_string (Snapshot.of_analyzed scratch))
    (Snapshot.to_string (Snapshot.of_analyzed inc));
  let hits = Stage.counter "incremental:hits" - h0 in
  let misses = Stage.counter "incremental:misses" - m_after_r0 in
  if hits = 0 then Alcotest.fail "warm run reused nothing";
  if misses >= hits then
    Alcotest.failf
      "warm run missed more than it hit (%d misses vs %d hits) — the \
       cache is not being reused across releases"
      misses hits

(* Output bytes of a release run through a shared cache, pinned: how
   the pipeline digests, classifies and caches, and how the index
   interns, are implementation choices; the snapshot and image bytes
   they produce are not. *)
let test_output_goldens () =
  let cache = Pipeline.new_cache () in
  let pc = { Pipeline.default with shared_cache = Some cache } in
  let check name dist ~snap ~snap_md5 ~image ~image_md5 =
    let a = Pipeline.run ~config:pc dist in
    let s = Snapshot.to_string (Snapshot.of_analyzed a) in
    let i =
      match Query.to_image_string (Query.index a.Pipeline.store) with
      | Ok i -> i
      | Error e -> Alcotest.failf "%s image: %a" name Snapshot.pp_error e
    in
    let md5 x = Digest.to_hex (Digest.string x) in
    Alcotest.(check int) (name ^ " snapshot bytes") snap (String.length s);
    Alcotest.(check string) (name ^ " snapshot md5") snap_md5 (md5 s);
    Alcotest.(check int) (name ^ " image bytes") image (String.length i);
    Alcotest.(check string) (name ^ " image md5") image_md5 (md5 i)
  in
  check "r0" (Lazy.force r0) ~snap:436952
    ~snap_md5:"ca0ce57d48d9613fbfbaa7aadb4f346d" ~image:707856
    ~image_md5:"4694c8af042c9db21e00accc373239b9";
  check "r3" (Lazy.force r3) ~snap:437983
    ~snap_md5:"e22079bc5b7b8a4c6b1ce16155ecf5d4" ~image:709232
    ~image_md5:"ad7a08428f626462247af97065ca567f"

(* --- resolution reuse across releases ------------------------------ *)

let reused () = Stage.counter "resolve:reused"

let snapshot_bytes a = Snapshot.to_string (Snapshot.of_analyzed a)

(* A hand-built world: the C runtime (a dynamic linker and a libc), an
   application library libfoo whose export calls into libc, and three
   packages. "foo" ships libfoo itself and an executable importing it,
   "cat" an executable importing libc only, and "stat" a static
   executable. *)
module Prog = Core.Asm.Program

let elf prog = Core.Elf.Writer.write (Core.Asm.Builder.assemble prog)

let ld_so ~syscalls =
  elf
    (Prog.shared_lib ~soname:"ld-linux-x86-64.so.2" ~needed:[]
       [ Prog.func "_dl_start"
           (List.map (fun n -> Prog.Direct_syscall n) syscalls) ])

let libc =
  elf
    (Prog.shared_lib ~soname:"libc.so.6" ~needed:[]
       [ Prog.func "write_wrap" [ Prog.Direct_syscall 1 ];
         Prog.func "exit_wrap" [ Prog.Direct_syscall 231 ] ])

let libfoo ~syscalls =
  elf
    (Prog.shared_lib ~soname:"libfoo.so.1" ~needed:[ "libc.so.6" ]
       [ Prog.func "foo_log"
           (Prog.Call_import "write_wrap"
           :: List.map (fun n -> Prog.Direct_syscall n) syscalls) ])

let exe ?interp ~needed body =
  elf (Prog.executable ?interp ~entry_fn:"_start" ~needed
         [ Prog.func "_start" body ])

let hand_world ?(runtime = []) ~shared_libs packages : P.distribution =
  let packages =
    List.map
      (fun (name, files) ->
        { P.name; section = "misc"; installs = 10; deps = []; essential = false;
          files =
            List.map
              (fun (path, kind, bytes) -> { P.path; kind; bytes })
              files })
      packages
  in
  { P.packages; runtime; shared_libs;
    total_installs = 10 * List.length packages;
    truth = Hashtbl.create 1; phase_truth = Hashtbl.create 1; seed = 0;
    n_requested = List.length packages; release = 0 }

let small_world ~ld ~foo =
  let foo_lib = libfoo ~syscalls:foo in
  hand_world
    ~runtime:[ ("ld-linux-x86-64.so.2", ld_so ~syscalls:ld); ("libc.so.6", libc) ]
    ~shared_libs:[ ("libfoo.so.1", "foo", foo_lib) ]
    [ ( "foo",
        [ ("/usr/lib/libfoo.so.1", P.Library, foo_lib);
          ( "/usr/bin/foo", P.Executable,
            exe ~needed:[ "libfoo.so.1" ] [ Prog.Call_import "foo_log" ] ) ] );
      ( "cat",
        [ ( "/usr/bin/cat", P.Executable,
            exe ~needed:[ "libc.so.6" ] [ Prog.Call_import "write_wrap" ] ) ] );
      ( "stat",
        [ ( "/usr/bin/stat", P.Executable,
            exe ~interp:None ~needed:[] [ Prog.Direct_syscall 60 ] ) ] ) ]

(* Run [base] then [next] through one shared cache; [next] must match a
   scratch run byte for byte, and the count of reused resolutions is
   returned. *)
let reuse_after ~base next =
  let pc = { Pipeline.default with shared_cache = Some (Pipeline.new_cache ()) } in
  ignore (Pipeline.run ~config:pc base);
  let before = reused () in
  let inc = Pipeline.run ~config:pc next in
  let n = reused () - before in
  Alcotest.(check string) "incremental == scratch"
    (snapshot_bytes (Pipeline.run next))
    (snapshot_bytes inc);
  (inc, n)

let syscalls_of (a : Pipeline.analyzed) path =
  match
    List.find_opt (fun (b : Store.bin_row) -> b.Store.br_path = path)
      a.Pipeline.store.Store.bins
  with
  | Some b -> Core.Analysis.Footprint.syscalls b.Store.br_resolved
  | None -> Alcotest.failf "no row for %s" path

let test_library_change_recomputes_importers () =
  let base = small_world ~ld:[ 9 ] ~foo:[] in
  (* nothing changed: all four rows are reused *)
  let _, n = reuse_after ~base base in
  Alcotest.(check int) "an unchanged release reuses every row" 4 n;
  (* only libfoo changed: the library row and its importer are
     resolved again, the libc-only and static executables are not *)
  let inc, n = reuse_after ~base (small_world ~ld:[ 9 ] ~foo:[ 2 ]) in
  Alcotest.(check int) "only rows outside libfoo's importers reused" 2 n;
  Alcotest.(check (list int)) "the importer sees the library's new syscall"
    [ 1; 2; 9 ]
    (syscalls_of inc "/usr/bin/foo");
  (* only the dynamic linker changed: every dynamically linked
     executable is resolved again, the library and the static
     executable are not *)
  let inc, n = reuse_after ~base (small_world ~ld:[ 9; 10 ] ~foo:[]) in
  Alcotest.(check int) "only rows without PT_INTERP reused" 2 n;
  Alcotest.(check (list int)) "a dynamic executable sees the new ld.so"
    [ 1; 9; 10 ]
    (syscalls_of inc "/usr/bin/cat")

let test_import_cycle_not_reused () =
  (* liba and libb import each other's exports, and libc imports its
     own export: no binary whose closure holds either cycle has a key,
     so none is reused; the static executable still is *)
  let liba =
    elf
      (Prog.shared_lib ~soname:"liba.so.1" ~needed:[ "libb.so.1" ]
         [ Prog.func "a_fn" [ Prog.Direct_syscall 0; Prog.Call_import "b_fn" ] ])
  in
  let libb =
    elf
      (Prog.shared_lib ~soname:"libb.so.1" ~needed:[ "liba.so.1" ]
         [ Prog.func "b_fn" [ Prog.Direct_syscall 1; Prog.Call_import "a_fn" ] ])
  in
  let selfish =
    elf
      (Prog.shared_lib ~soname:"libself.so.1" ~needed:[]
         [ Prog.func "self_fn"
             [ Prog.Direct_syscall 3; Prog.Call_import "self_fn" ] ])
  in
  let world =
    hand_world
      ~shared_libs:
        [ ("liba.so.1", "a", liba); ("libb.so.1", "b", libb);
          ("libself.so.1", "self", selfish) ]
      [ ( "a",
          [ ("/usr/lib/liba.so.1", P.Library, liba);
            ( "/usr/bin/a", P.Executable,
              exe ~interp:None ~needed:[ "liba.so.1" ]
                [ Prog.Call_import "a_fn" ] ) ] );
        ("b", [ ("/usr/lib/libb.so.1", P.Library, libb) ]);
        ( "self",
          [ ( "/usr/bin/self", P.Executable,
              exe ~interp:None ~needed:[ "libself.so.1" ]
                [ Prog.Call_import "self_fn" ] ) ] );
        ( "stat",
          [ ( "/usr/bin/stat", P.Executable,
              exe ~interp:None ~needed:[] [ Prog.Direct_syscall 60 ] ) ] ) ]
  in
  let inc, n = reuse_after ~base:world world in
  Alcotest.(check int) "only the acyclic static executable is reused" 1 n;
  Alcotest.(check (list int)) "the cycle still resolves both libraries"
    [ 0; 1 ]
    (syscalls_of inc "/usr/bin/a");
  let module Resolve = Core.Analysis.Resolve in
  Alcotest.(check bool) "a library on the cycle has no key" true
    (Resolve.closure_key inc.Pipeline.world
       (Hashtbl.find inc.Pipeline.world.Resolve.libs "libb.so.1")
    = None)

(* --- delta snapshots ---------------------------------------------- *)

let snap_of release =
  Snapshot.of_analyzed
    (Pipeline.run (Lazy.force (if release = 0 then r0 else r3)))

let base = lazy (snap_of 0)
let cur = lazy (snap_of 3)

let ok_exn what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %a" what Snapshot.pp_error e

let test_delta_roundtrip () =
  let base = Lazy.force base and cur = Lazy.force cur in
  let delta = Snapshot.to_delta_string ~base cur in
  let applied = ok_exn "apply" (Snapshot.apply_delta ~base delta) in
  Alcotest.(check string) "applying the delta reproduces the snapshot"
    (Snapshot.to_string cur)
    (Snapshot.to_string applied)

let test_delta_is_small () =
  let base = Lazy.force base and cur = Lazy.force cur in
  let delta = String.length (Snapshot.to_delta_string ~base cur) in
  let full = String.length (Snapshot.to_string cur) in
  if delta * 10 > full then
    Alcotest.failf
      "delta is %d bytes against a %d-byte full snapshot — changed-rows \
       encoding should be an order of magnitude smaller"
      delta full

let check_delta_error name expected ~base bytes =
  match Snapshot.apply_delta ~base bytes with
  | Ok _ -> Alcotest.failf "%s: apply unexpectedly succeeded" name
  | Error e ->
    Alcotest.(check string) name expected (Snapshot.kind_name e)

(* A C runtime point release: the stock dynamic linker with one more
   startup syscall (personality), which every dynamically linked
   executable's resolved footprint picks up. *)
let patched_runtime (dist : P.distribution) =
  let module Libc_gen = Core.Distro.Libc_gen in
  let ld = Libc_gen.build_ld_so () in
  let funcs =
    List.map
      (fun (f : Prog.func) ->
        if f.Prog.fname = "_dl_start" then
          { f with Prog.ops = Prog.Direct_syscall 135 :: f.Prog.ops }
        else f)
      ld.Prog.funcs
  in
  let bytes = Core.Asm.Builder.assemble_elf { ld with Prog.funcs } in
  let ld_soname = Option.get ld.Prog.soname in
  { dist with
    P.runtime =
      List.map
        (fun (soname, b) -> (soname, if soname = ld_soname then bytes else b))
        dist.P.runtime }

let test_reuse_history () =
  (* release 0 and the twenty after it through one shared cache, with
     the patched dynamic linker at releases 3, 8, 13 and 18 (so it both
     arrives and goes away): every release's snapshot is byte-identical
     to a from-scratch run, its delta against release 0 applies back to
     it and is refused by the previous release's snapshot, and the warm
     releases reuse resolutions instead of redoing them *)
  let cache = Pipeline.new_cache () in
  let pc = { Pipeline.default with shared_cache = Some cache } in
  let warm_reused = ref 0 in
  let base = ref None and prev = ref None in
  for r = 0 to 20 do
    let dist = G.evolve ~config ~release:r () in
    let dist = if r mod 5 = 3 then patched_runtime dist else dist in
    let before = reused () in
    let inc = Pipeline.run ~config:pc dist in
    if r > 0 then warm_reused := !warm_reused + (reused () - before);
    let snap = Snapshot.of_analyzed inc in
    let bytes = Snapshot.to_string snap in
    Alcotest.(check string)
      (Printf.sprintf "release %d: incremental == scratch" r)
      (snapshot_bytes (Pipeline.run dist))
      bytes;
    (match !base with
     | None -> base := Some snap
     | Some b ->
       let delta = Snapshot.to_delta_string ~base:b snap in
       let applied =
         ok_exn (Printf.sprintf "release %d: apply" r)
           (Snapshot.apply_delta ~base:b delta)
       in
       Alcotest.(check string)
         (Printf.sprintf "release %d: the delta applies back" r)
         bytes
         (Snapshot.to_string applied);
       (match !prev with
        | Some p when p != b ->
          check_delta_error
            (Printf.sprintf "release %d: the delta on the previous release" r)
            "base-mismatch" ~base:p delta
        | _ -> ()));
    prev := Some snap
  done;
  if !warm_reused = 0 then Alcotest.fail "warm releases reused no resolution"

let test_delta_damage_goldens () =
  let base = Lazy.force base and cur = Lazy.force cur in
  let delta = Snapshot.to_delta_string ~base cur in
  let n = String.length delta in
  (* a delta fed to the plain decoder announces its base *)
  (match Snapshot.of_string delta with
   | Ok _ -> Alcotest.fail "a delta decoded standalone"
   | Error e ->
     Alcotest.(check string) "standalone decode" "needs-base"
       (Snapshot.kind_name e));
  (* a full snapshot is not a delta *)
  check_delta_error "full snapshot as delta" "unsupported-version" ~base
    (Snapshot.to_string cur);
  (* applying against the wrong base world *)
  check_delta_error "wrong base" "base-mismatch" ~base:cur delta;
  (* damage: truncations and a payload flip (caught by the digest) *)
  check_delta_error "truncated header" "truncated" ~base
    (String.sub delta 0 20);
  check_delta_error "truncated payload" "truncated" ~base
    (String.sub delta 0 (n - 1));
  let flipped = Bytes.of_string delta in
  let i = 36 + ((n - 36) / 2) in
  Bytes.set flipped i
    (Char.chr (Char.code (Bytes.get flipped i) lxor 0x40));
  check_delta_error "flipped payload byte" "digest-mismatch" ~base
    (Bytes.to_string flipped);
  check_delta_error "trailing garbage" "corrupt" ~base (delta ^ "x")

let test_delta_never_raises () =
  (* every truncation point and a flip at every offset must come back
     as a structured error, never an exception *)
  let base = Lazy.force base in
  let delta = Snapshot.to_delta_string ~base (Lazy.force cur) in
  let n = String.length delta in
  for keep = 0 to n - 1 do
    match Snapshot.apply_delta ~base (String.sub delta 0 keep) with
    | Ok _ -> Alcotest.failf "truncation to %d applied" keep
    | Error _ -> ()
  done;
  for i = 0 to n - 1 do
    let b = Bytes.of_string delta in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
    ignore (Snapshot.apply_delta ~base (Bytes.to_string b))
  done

let test_delta_file_roundtrip () =
  let base = Lazy.force base and cur = Lazy.force cur in
  let path = Filename.temp_file "lapis-delta" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      (match Snapshot.save_delta path ~base cur with
       | Ok () -> ()
       | Error e -> Alcotest.failf "save_delta: %a" Snapshot.pp_error e);
      let loaded = ok_exn "load_delta" (Snapshot.load_delta path ~base) in
      Alcotest.(check string) "file round-trip"
        (Snapshot.to_string cur)
        (Snapshot.to_string loaded))

(* Byte identity of the encoder, pinned: row keying and the base
   digest are implementation choices, the bytes they produce are not. *)
let test_delta_goldens () =
  let base = Lazy.force base and cur = Lazy.force cur in
  let check name ~base cur ~bytes ~md5 =
    let d = Snapshot.to_delta_string ~base cur in
    Alcotest.(check int) (name ^ " bytes") bytes (String.length d);
    Alcotest.(check string) (name ^ " md5") md5 (Digest.to_hex (Digest.string d))
  in
  check "r0->r3" ~base cur ~bytes:6649 ~md5:"a4aa68796ef574c5fdcd2f47c3a4c706";
  check "r0->r0" ~base base ~bytes:1069
    ~md5:"591dfcc7557d3022153afe248585bc68";
  check "r3->r0" ~base:cur base ~bytes:6328
    ~md5:"ad01cec4ad9829f138316fbe1252ab9a"

(* --- row identity ------------------------------------------------- *)

(* [t] with its rows replaced (metadata kept consistent). *)
let with_rows (t : Snapshot.t) ~packages ~bins : Snapshot.t =
  { t with
    meta = { t.Snapshot.meta with Snapshot.n_packages = List.length packages };
    store =
      Store.build ~packages ~bins
        ~total_installs:t.Snapshot.store.Store.total_installs }

let pkgs (t : Snapshot.t) = Array.to_list t.Snapshot.store.Store.packages
let bins (t : Snapshot.t) = t.Snapshot.store.Store.bins

let check_applies name ~base cur =
  let delta = Snapshot.to_delta_string ~base cur in
  let applied = ok_exn name (Snapshot.apply_delta ~base delta) in
  Alcotest.(check string) name (Snapshot.to_string cur)
    (Snapshot.to_string applied);
  delta

let test_set_shape_is_not_identity () =
  let base = Lazy.force base in
  let module Api = Core.Apidb.Api in
  (* rebuild one bin's init set in reverse insertion order: same
     members, different balanced-tree shape *)
  let reshaped = ref false in
  let bins' =
    List.map
      (fun (r : Store.bin_row) ->
        let rebuilt =
          List.fold_left (fun s a -> Api.Set.add a s) Api.Set.empty
            (List.rev (Api.Set.elements r.Store.br_init))
        in
        if !reshaped || rebuilt = r.Store.br_init then r
        else begin
          reshaped := true;
          { r with Store.br_init = rebuilt }
        end)
      (bins base)
  in
  if not !reshaped then Alcotest.fail "no init set changed shape on rebuild";
  let cur = with_rows base ~packages:(pkgs base) ~bins:bins' in
  let delta = check_applies "reshaped set round-trips" ~base cur in
  Alcotest.(check string) "a reshaped set is still the same row"
    (Snapshot.to_delta_string ~base base)
    delta

let test_signed_zero_is_new () =
  let base = Lazy.force base in
  let set_prob prob =
    match pkgs base with
    | p :: rest ->
      with_rows base ~packages:({ p with Store.pr_prob = prob } :: rest)
        ~bins:(bins base)
    | [] -> Alcotest.fail "empty world"
  in
  let zero = set_prob 0.0 and neg_zero = set_prob (-0.0) in
  let delta = check_applies "-0.0 round-trips" ~base:zero neg_zero in
  if String.equal delta (Snapshot.to_delta_string ~base:zero zero) then
    Alcotest.fail "-0.0 was kept as the base's 0.0 row"

let test_duplicate_base_rows_keep_first () =
  let base = Lazy.force base in
  let packages = pkgs base and bins = bins base in
  let dup =
    with_rows base
      ~packages:(packages @ [ List.hd packages ])
      ~bins:(bins @ [ List.hd bins ])
  in
  let delta = check_applies "duplicate base rows" ~base:dup base in
  (* first index wins: the instruction streams are exactly the plain
     delta's; only the named base digest (and so the payload MD5)
     differ *)
  let plain = Snapshot.to_delta_string ~base base in
  let blank d base =
    (* zero the header MD5 and the base digest the payload names *)
    let digest = Digest.string (Snapshot.to_string base) in
    let rec find i =
      if i + 16 > String.length d then
        Alcotest.fail "base digest not found in delta"
      else if String.sub d i 16 = digest then i
      else find (i + 1)
    in
    let at = find 36 in
    let b = Bytes.of_string d in
    Bytes.fill b 12 16 '\000';
    Bytes.fill b at 16 '\000';
    Bytes.to_string b
  in
  Alcotest.(check string) "duplicates keep their first index"
    (blank plain base) (blank delta dup)

let test_reorder_and_remove () =
  let base = Lazy.force base in
  let drop_every k l = List.filteri (fun i _ -> i mod k <> 0) l in
  let cur =
    with_rows base
      ~packages:(List.rev (drop_every 7 (pkgs base)))
      ~bins:(List.rev (drop_every 3 (bins base)))
  in
  ignore (check_applies "reordered and removed rows" ~base cur)

(* --- base digest memo --------------------------------------------- *)

let test_digest_memo_not_stale () =
  let a = Lazy.force base and b = Lazy.force cur in
  let da = Snapshot.to_delta_string ~base:a b in
  let db = Snapshot.to_delta_string ~base:b a in
  let da' = Snapshot.to_delta_string ~base:a b in
  Alcotest.(check string) "A, B, then A again" da da';
  ignore (ok_exn "delta on A" (Snapshot.apply_delta ~base:a da));
  ignore (ok_exn "delta on B" (Snapshot.apply_delta ~base:b db));
  check_delta_error "A's delta on B" "base-mismatch" ~base:b da;
  check_delta_error "B's delta on A" "base-mismatch" ~base:a db;
  (* a copy is a new value with its own digest, even right after the
     original's digest was computed *)
  let a' = { a with Snapshot.rejects = ("copy", 1) :: a.Snapshot.rejects } in
  check_delta_error "A's delta on a copy" "base-mismatch" ~base:a' da;
  let da_copy = Snapshot.to_delta_string ~base:a' b in
  ignore (ok_exn "copy's delta on the copy" (Snapshot.apply_delta ~base:a' da_copy));
  check_delta_error "copy's delta on A" "base-mismatch" ~base:a da_copy

(* --- source identity ---------------------------------------------- *)

let test_source_key_release () =
  let k0 = Snapshot.source_key ~seed:1 ~n_packages:2 ~total_installs:3 () in
  let k0' =
    Snapshot.source_key ~release:0 ~seed:1 ~n_packages:2 ~total_installs:3 ()
  in
  let k1 =
    Snapshot.source_key ~release:1 ~seed:1 ~n_packages:2 ~total_installs:3 ()
  in
  let k2 =
    Snapshot.source_key ~release:2 ~seed:1 ~n_packages:2 ~total_installs:3 ()
  in
  Alcotest.(check string) "release 0 is the default spelling" k0 k0';
  if k1 = k0 then
    Alcotest.fail "release 1 collides with its release-0 ancestor";
  if k2 = k1 then Alcotest.fail "two releases share a source key"

let test_matches_release () =
  let cur = Lazy.force cur in
  Alcotest.(check bool) "matches with its own release" true
    (Snapshot.matches ~release:3 cur config);
  Alcotest.(check bool) "an evolved world is not its ancestor" false
    (Snapshot.matches cur config);
  Alcotest.(check bool) "base matches the release-0 default" true
    (Snapshot.matches (Lazy.force base) config)

let () =
  Alcotest.run "evolve"
    [ ( "evolution",
        [ Alcotest.test_case "release 0 == generate" `Quick
            test_release0_is_generate;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "release recorded" `Quick test_release_recorded;
          Alcotest.test_case "churn bounded" `Quick test_churn_is_bounded ] );
      ( "incremental",
        [ Alcotest.test_case "bit-identical + counters" `Quick
            test_incremental_bit_identical;
          Alcotest.test_case "output goldens" `Quick test_output_goldens;
          Alcotest.test_case "twenty releases reuse, == scratch" `Quick
            test_reuse_history;
          Alcotest.test_case "a library change recomputes its importers"
            `Quick test_library_change_recomputes_importers;
          Alcotest.test_case "an import cycle is never reused" `Quick
            test_import_cycle_not_reused ] );
      ( "delta",
        [ Alcotest.test_case "round-trip" `Quick test_delta_roundtrip;
          Alcotest.test_case "small" `Quick test_delta_is_small;
          Alcotest.test_case "damage goldens" `Quick
            test_delta_damage_goldens;
          Alcotest.test_case "never raises" `Quick test_delta_never_raises;
          Alcotest.test_case "file round-trip" `Quick
            test_delta_file_roundtrip;
          Alcotest.test_case "goldens" `Quick test_delta_goldens;
          Alcotest.test_case "digest memo not stale" `Quick
            test_digest_memo_not_stale ] );
      ( "row identity",
        [ Alcotest.test_case "set shape" `Quick
            test_set_shape_is_not_identity;
          Alcotest.test_case "signed zero" `Quick test_signed_zero_is_new;
          Alcotest.test_case "duplicate base rows" `Quick
            test_duplicate_base_rows_keep_first;
          Alcotest.test_case "reorder and remove" `Quick
            test_reorder_and_remove ] );
      ( "identity",
        [ Alcotest.test_case "source_key release" `Quick
            test_source_key_release;
          Alcotest.test_case "matches release" `Quick test_matches_release ]
      )
    ]
