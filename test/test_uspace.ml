(* Tests for the user-space block cache baseline (lib/uspace). *)

let psz = Hw.Defs.page_size
let checki = Alcotest.(check int)

type rig = { uc : Uspace.User_cache.t; fd : Linux_sim.Readwrite.fd }

let make_rig ?(capacity = 64) ?(file_pages = 256) () =
  let pmem =
    Sdevice.Pmem.create ~capacity_bytes:(Int64.of_int (file_pages * psz)) ()
  in
  let access =
    Sdevice.Access.host_pmem Hw.Costs.default ~entry:Sdevice.Access.From_user pmem
  in
  let fd =
    Linux_sim.Readwrite.open_direct ~costs:Hw.Costs.default ~access
      ~translate:(fun p -> if p < file_pages then Some p else None)
      ~size_pages:file_pages
  in
  let uc =
    Uspace.User_cache.create
      (Uspace.User_cache.default_config ~capacity_pages:capacity)
  in
  Uspace.User_cache.register_file uc ~file_id:1 ~fd;
  { uc; fd }

let in_sim f =
  let eng = Sim.Engine.create () in
  ignore (Sim.Engine.spawn eng ~core:0 f);
  Sim.Engine.run eng

let hit_miss_accounting () =
  let r = make_rig () in
  in_sim (fun () ->
      let dst = Bytes.create 16 in
      Uspace.User_cache.read r.uc ~file_id:1 ~off:0 ~len:16 ~dst;
      checki "first is a miss" 1 (Uspace.User_cache.misses r.uc);
      Uspace.User_cache.read r.uc ~file_id:1 ~off:100 ~len:16 ~dst;
      checki "same block hits" 1 (Uspace.User_cache.hits r.uc);
      checki "one device read" 1 (Linux_sim.Readwrite.reads r.fd))

let write_through_and_cached_copy () =
  let r = make_rig () in
  in_sim (fun () ->
      let block = Bytes.make psz 'W' in
      Uspace.User_cache.write r.uc ~file_id:1 ~off:(3 * psz) ~src:block;
      checki "went to the device" 1 (Linux_sim.Readwrite.writes r.fd);
      let dst = Bytes.create 8 in
      Uspace.User_cache.read r.uc ~file_id:1 ~off:(3 * psz) ~len:8 ~dst;
      Alcotest.(check string) "reads back" "WWWWWWWW" (Bytes.to_string dst))

let capacity_bounded () =
  let r = make_rig ~capacity:32 () in
  in_sim (fun () ->
      let dst = Bytes.create 1 in
      for p = 0 to 127 do
        Uspace.User_cache.read r.uc ~file_id:1 ~off:(p * psz) ~len:1 ~dst
      done;
      Alcotest.(check bool) "resident <= capacity" true
        (Uspace.User_cache.resident r.uc <= 32);
      checki "all were misses (scan)" 128 (Uspace.User_cache.misses r.uc))

let concurrent_misses_are_safe () =
  (* Both threads read the same cold block; data must be correct and the
     cache must end with one resident copy. *)
  let r = make_rig () in
  in_sim (fun () ->
      let src = Bytes.make psz 'C' in
      Uspace.User_cache.write r.uc ~file_id:1 ~off:(7 * psz) ~src;
      Uspace.User_cache.invalidate_file r.uc ~file_id:1);
  let eng = Sim.Engine.create () in
  for core = 0 to 1 do
    ignore
      (Sim.Engine.spawn eng ~core (fun () ->
           let dst = Bytes.create 4 in
           Uspace.User_cache.read r.uc ~file_id:1 ~off:(7 * psz) ~len:4 ~dst;
           Alcotest.(check string) "correct data" "CCCC" (Bytes.to_string dst)))
  done;
  Sim.Engine.run eng

let invalidate_file_clears () =
  let r = make_rig () in
  in_sim (fun () ->
      let dst = Bytes.create 1 in
      Uspace.User_cache.read r.uc ~file_id:1 ~off:0 ~len:1 ~dst;
      Uspace.User_cache.invalidate_file r.uc ~file_id:1;
      checki "empty" 0 (Uspace.User_cache.resident r.uc);
      Uspace.User_cache.read r.uc ~file_id:1 ~off:0 ~len:1 ~dst;
      checki "re-read misses" 2 (Uspace.User_cache.misses r.uc))

let lookups_cost_cycles_even_on_hits () =
  (* The paper's central claim about user-space caches: hits still burn
     CPU.  100 hits must advance the virtual clock substantially. *)
  let r = make_rig () in
  let eng = Sim.Engine.create () in
  let dt = ref 0L in
  ignore
    (Sim.Engine.spawn eng ~core:0 (fun () ->
         let dst = Bytes.create 1 in
         Uspace.User_cache.read r.uc ~file_id:1 ~off:0 ~len:1 ~dst;
         let t0 = Sim.Engine.now_f () in
         for _ = 1 to 100 do
           Uspace.User_cache.read r.uc ~file_id:1 ~off:0 ~len:1 ~dst
         done;
         dt := Int64.sub (Sim.Engine.now_f ()) t0));
  Sim.Engine.run eng;
  Alcotest.(check bool) "hits cost >= 100 x lookup_cost" true
    (!dt >= Int64.mul 100L 2800L)

(* ---- Model-based property: direct I/O plus the user cache ---- *)

type op =
  | Write of int * int * int  (** first page, pages, fill seed *)
  | Read of int * int  (** through the cache: offset, length *)
  | Pread of int * int  (** straight to the direct fd: offset, length *)
  | Invalidate

let model_pages = 24

let print_op = function
  | Write (p, n, s) -> Printf.sprintf "Write(page %d, %d pages, seed %d)" p n s
  | Read (off, len) -> Printf.sprintf "Read(%d, %d)" off len
  | Pread (off, len) -> Printf.sprintf "Pread(%d, %d)" off len
  | Invalidate -> "Invalidate"

let gen_op =
  let open QCheck.Gen in
  let bytes = model_pages * psz in
  let range = map2 (fun off len -> (off, min len (bytes - off))) (int_bound (bytes - 1)) (int_bound (3 * psz)) in
  frequency
    [
      ( 3,
        map3
          (fun p n seed -> Write (p, min n (model_pages - p), seed))
          (int_bound (model_pages - 1)) (int_range 1 4) (int_bound 255) );
      (4, map (fun (off, len) -> Read (off, len)) range);
      (2, map (fun (off, len) -> Pread (off, len)) range);
      (1, return Invalidate);
    ]

(* Random page-aligned writes, reads at any offset and length, and
   invalidations, through a cache of 8 blocks over a 24-page file whose
   device mapping breaks at page 10: every read equals a flat byte
   model. *)
let direct_and_cache_match_model =
  QCheck.Test.make ~name:"readwrite direct + user cache match a byte model" ~count:100
    QCheck.(make ~print:Print.(list print_op) Gen.(list_size (int_range 1 60) gen_op))
    (fun ops ->
      let pmem = Sdevice.Pmem.create () in
      let access =
        Sdevice.Access.host_pmem Hw.Costs.default ~entry:Sdevice.Access.From_user pmem
      in
      let fd =
        Linux_sim.Readwrite.open_direct ~costs:Hw.Costs.default ~access
          ~translate:(fun p ->
            if p < 0 || p >= model_pages then None
            else if p < 10 then Some (p + 3)
            else Some (p + 40))
          ~size_pages:model_pages
      in
      let uc =
        Uspace.User_cache.create
          { (Uspace.User_cache.default_config ~capacity_pages:8) with shards = 2 }
      in
      Uspace.User_cache.register_file uc ~file_id:1 ~fd;
      let model = Bytes.make (model_pages * psz) '\000' in
      let ok = ref true in
      let check_read read (off, len) =
        let dst = Bytes.create len in
        read ~off ~len ~dst;
        if not (Bytes.equal dst (Bytes.sub model off len)) then ok := false
      in
      in_sim (fun () ->
          List.iter
            (function
              | Write (p, n, seed) ->
                  (* every page of [src] differs from the others *)
                  let src =
                    Bytes.init (n * psz) (fun i ->
                        Char.chr ((seed + (i / psz * 31) + (i * 7)) land 0xff))
                  in
                  Uspace.User_cache.write uc ~file_id:1 ~off:(p * psz) ~src;
                  Bytes.blit src 0 model (p * psz) (n * psz)
              | Read (off, len) -> check_read (Uspace.User_cache.read uc ~file_id:1) (off, len)
              | Pread (off, len) -> check_read (Linux_sim.Readwrite.pread fd) (off, len)
              | Invalidate -> Uspace.User_cache.invalidate_file uc ~file_id:1)
            ops;
          (* final sweep through the cache *)
          check_read (Uspace.User_cache.read uc ~file_id:1) (0, model_pages * psz));
      !ok)

let () =
  Alcotest.run "uspace"
    [
      ( "user cache",
        [
          Alcotest.test_case "hit/miss accounting" `Quick hit_miss_accounting;
          Alcotest.test_case "write-through" `Quick write_through_and_cached_copy;
          Alcotest.test_case "capacity bounded" `Quick capacity_bounded;
          Alcotest.test_case "concurrent misses" `Quick concurrent_misses_are_safe;
          Alcotest.test_case "invalidate file" `Quick invalidate_file_clears;
          Alcotest.test_case "hits are not free" `Quick lookups_cost_cycles_even_on_hits;
          QCheck_alcotest.to_alcotest direct_and_cache_match_model;
        ] );
    ]
