(* Tests for the storage device models (lib/sdevice). *)

let psz = Hw.Defs.page_size
let c = Hw.Costs.default
let checki = Alcotest.(check int)
let check64 = Alcotest.(check int64)

(* Run [f] in a fresh engine fiber and return the elapsed virtual cycles. *)
let in_fiber f =
  let eng = Sim.Engine.create () in
  let out = ref None in
  ignore (Sim.Engine.spawn eng (fun () -> out := Some (f ())));
  Sim.Engine.run eng;
  (Option.get !out, Sim.Engine.now eng)

(* ---- Pagestore ---- *)

let pagestore_roundtrip () =
  let s = Sdevice.Pagestore.create () in
  let src = Bytes.of_string "hello across a page boundary!" in
  let addr = Int64.of_int (psz - 5) in
  Sdevice.Pagestore.write_bytes s ~addr ~src ~src_off:0 ~len:(Bytes.length src);
  let dst = Bytes.create (Bytes.length src) in
  Sdevice.Pagestore.read_bytes s ~addr ~len:(Bytes.length src) ~dst ~dst_off:0;
  Alcotest.(check string) "crosses pages" (Bytes.to_string src) (Bytes.to_string dst);
  checki "two pages materialized" 2 (Sdevice.Pagestore.allocated_pages s)

let pagestore_zero_fill () =
  let s = Sdevice.Pagestore.create () in
  let dst = Bytes.make 8 'x' in
  Sdevice.Pagestore.read_bytes s ~addr:123456L ~len:8 ~dst ~dst_off:0;
  Alcotest.(check string) "unwritten reads zero" (String.make 8 '\000')
    (Bytes.to_string dst);
  checki "reads allocate nothing" 0 (Sdevice.Pagestore.allocated_pages s)

let pagestore_pages () =
  let s = Sdevice.Pagestore.create () in
  let page = Bytes.make psz 'A' in
  Sdevice.Pagestore.write_page s ~page:7 ~src:page;
  let back = Bytes.create psz in
  Sdevice.Pagestore.read_page s ~page:7 ~dst:back;
  Alcotest.(check bool) "page equal" true (Bytes.equal page back)

let pagestore_digest () =
  let image pages =
    let s = Sdevice.Pagestore.create () in
    List.iter
      (fun (page, c) -> Sdevice.Pagestore.write_page s ~page ~src:(Bytes.make psz c))
      pages;
    Sdevice.Pagestore.digest s
  in
  let same = Alcotest.(check bool) in
  same "write order does not matter" true
    (image [ (3, 'a'); (9, 'b') ] = image [ (9, 'b'); (3, 'a') ]);
  same "zero pages digest as unwritten" true
    (image [ (3, 'a'); (5, '\000') ] = image [ (3, 'a') ]);
  same "page number counts" false (image [ (3, 'a') ] = image [ (4, 'a') ]);
  same "bytes count" false (image [ (3, 'a') ] = image [ (3, 'b') ])

let pagestore_prop =
  QCheck.Test.make ~name:"pagestore read-after-write at random offsets" ~count:100
    QCheck.(pair (int_bound 100000) (string_of_size (QCheck.Gen.int_range 1 5000)))
    (fun (off, data) ->
      data = ""
      ||
      let s = Sdevice.Pagestore.create () in
      let src = Bytes.of_string data in
      Sdevice.Pagestore.write_bytes s ~addr:(Int64.of_int off) ~src ~src_off:0
        ~len:(Bytes.length src);
      let dst = Bytes.create (Bytes.length src) in
      Sdevice.Pagestore.read_bytes s ~addr:(Int64.of_int off) ~len:(Bytes.length src)
        ~dst ~dst_off:0;
      Bytes.equal src dst)

(* ---- Block device / NVMe ---- *)

let nvme_latency_envelope () =
  let d = Sdevice.Nvme.create () in
  let t4k = Sdevice.Block_dev.service_time d ~len:psz in
  let us = Int64.to_float t4k /. 2400. in
  Alcotest.(check bool) "4K read ~10us (within 8-14us)" true (us > 8. && us < 14.);
  let t128k = Sdevice.Block_dev.service_time d ~len:(32 * psz) in
  Alcotest.(check bool) "sequential amortizes setup" true
    (Int64.to_float t128k < 32. *. Int64.to_float t4k)

let block_dev_queueing () =
  (* 12 concurrent 4K reads on 6 channels take two service rounds *)
  let d = Sdevice.Nvme.create () in
  let svc = Sdevice.Block_dev.service_time d ~len:psz in
  let eng = Sim.Engine.create () in
  for i = 0 to 11 do
    ignore
      (Sim.Engine.spawn eng ~core:i (fun () ->
           let b = Bytes.create psz in
           Sdevice.Block_dev.read d ~addr:(Int64.of_int (i * psz)) ~len:psz ~dst:b
             ~dst_off:0))
  done;
  Sim.Engine.run eng;
  check64 "two rounds" (Int64.mul 2L svc) (Sim.Engine.now eng);
  checki "reads counted" 12 (Sdevice.Block_dev.reads d);
  Alcotest.(check bool) "queueing recorded" true (Sdevice.Block_dev.queued_cycles d > 0L)

let block_dev_bounds () =
  let d = Sdevice.Nvme.create ~capacity_bytes:8192L () in
  let b = Bytes.create psz in
  Alcotest.check_raises "out of capacity"
    (Invalid_argument "nvme0: I/O outside device capacity") (fun () ->
      ignore (in_fiber (fun () -> Sdevice.Block_dev.read d ~addr:8192L ~len:psz ~dst:b ~dst_off:0)))

let block_dev_data () =
  let d = Sdevice.Nvme.create () in
  ignore
    (in_fiber (fun () ->
         let src = Bytes.make psz 'Q' in
         Sdevice.Block_dev.write d ~addr:4096L ~src ~src_off:0 ~len:psz;
         let dst = Bytes.create psz in
         Sdevice.Block_dev.read d ~addr:4096L ~len:psz ~dst ~dst_off:0;
         Alcotest.(check bool) "data persisted" true (Bytes.equal src dst)))

(* ---- Pmem / DAX ---- *)

let pmem_dax_costs () =
  let p = Sdevice.Pmem.create () in
  let dst = Bytes.create psz in
  let simd = Sdevice.Pmem.dax_read p c ~simd:true ~addr:0L ~len:psz ~dst ~dst_off:0 in
  let scalar = Sdevice.Pmem.dax_read p c ~simd:false ~addr:0L ~len:psz ~dst ~dst_off:0 in
  Alcotest.(check bool) "SIMD ~2x cheaper" true
    (Int64.to_float scalar /. Int64.to_float simd > 1.7);
  checki "reads counted" 2 (Sdevice.Pmem.dax_reads p)

let pmem_dax_roundtrip () =
  let p = Sdevice.Pmem.create () in
  let src = Bytes.of_string "persistent bytes" in
  ignore
    (Sdevice.Pmem.dax_write p c ~simd:true ~addr:4000L ~src ~src_off:0
       ~len:(Bytes.length src));
  let dst = Bytes.create (Bytes.length src) in
  ignore
    (Sdevice.Pmem.dax_read p c ~simd:true ~addr:4000L ~len:(Bytes.length src) ~dst
       ~dst_off:0);
  Alcotest.(check bool) "roundtrip" true (Bytes.equal src dst)

(* ---- Access methods ---- *)

let cost_of access =
  let (), cycles =
    in_fiber (fun () ->
        let b = Bytes.create psz in
        Sdevice.Access.read_page access ~page:0 ~dst:b)
  in
  cycles

let access_cost_ordering () =
  (* For a 4K pmem read: DAX < HOST(kernel) < HOST(user) < HOST(guest). *)
  let p () = Sdevice.Pmem.create () in
  let dax = cost_of (Sdevice.Access.dax_pmem c (p ())) in
  let kern = cost_of (Sdevice.Access.host_pmem c ~entry:Sdevice.Access.In_kernel (p ())) in
  let user = cost_of (Sdevice.Access.host_pmem c ~entry:Sdevice.Access.From_user (p ())) in
  let guest = cost_of (Sdevice.Access.host_pmem c ~entry:Sdevice.Access.From_guest (p ())) in
  Alcotest.(check bool) "dax < kernel path" true (dax < kern);
  Alcotest.(check bool) "kernel < syscall" true (kern < user);
  Alcotest.(check bool) "syscall < vmcall" true (user < guest)

let access_spdk_vs_host_nvme () =
  let spdk = cost_of (Sdevice.Access.spdk_nvme c (Sdevice.Nvme.create ())) in
  let host =
    cost_of
      (Sdevice.Access.host_nvme c ~entry:Sdevice.Access.From_guest
         (Sdevice.Nvme.create ()))
  in
  Alcotest.(check bool) "SPDK bypass cheaper" true (spdk < host)

let access_uring_between_spdk_and_host () =
  (* io_uring amortizes syscalls: cheaper than synchronous host I/O but
     still above the kernel-bypass SPDK path *)
  let spdk = cost_of (Sdevice.Access.spdk_nvme c (Sdevice.Nvme.create ())) in
  let uring =
    cost_of
      (Sdevice.Access.uring_nvme c ~entry:Sdevice.Access.From_user
         (Sdevice.Nvme.create ()))
  in
  let host =
    cost_of
      (Sdevice.Access.host_nvme c ~entry:Sdevice.Access.From_user
         (Sdevice.Nvme.create ()))
  in
  Alcotest.(check bool) "spdk < uring" true (spdk < uring);
  Alcotest.(check bool) "uring < host sync" true (uring < host)

let access_moves_data () =
  let nvme = Sdevice.Nvme.create () in
  let a = Sdevice.Access.spdk_nvme c nvme in
  ignore
    (in_fiber (fun () ->
         let src = Bytes.make (2 * psz) 'Z' in
         Sdevice.Access.write_pages a ~page:3 ~count:2 ~src;
         let dst = Bytes.create (2 * psz) in
         Sdevice.Access.read_pages a ~page:3 ~count:2 ~dst;
         Alcotest.(check bool) "multi-page roundtrip" true (Bytes.equal src dst)))

let access_rejects_small_buffer () =
  let a = Sdevice.Access.dax_pmem c (Sdevice.Pmem.create ()) in
  Alcotest.check_raises "buffer too small" (Invalid_argument "Access: buffer too small")
    (fun () ->
      ignore
        (in_fiber (fun () ->
             Sdevice.Access.read_pages a ~page:0 ~count:2 ~dst:(Bytes.create psz))))

let () =
  Alcotest.run "sdevice"
    [
      ( "pagestore",
        [
          Alcotest.test_case "roundtrip across pages" `Quick pagestore_roundtrip;
          Alcotest.test_case "zero fill" `Quick pagestore_zero_fill;
          Alcotest.test_case "whole pages" `Quick pagestore_pages;
          Alcotest.test_case "digest" `Quick pagestore_digest;
          QCheck_alcotest.to_alcotest pagestore_prop;
        ] );
      ( "block dev",
        [
          Alcotest.test_case "nvme latency envelope" `Quick nvme_latency_envelope;
          Alcotest.test_case "queueing" `Quick block_dev_queueing;
          Alcotest.test_case "capacity bounds" `Quick block_dev_bounds;
          Alcotest.test_case "data" `Quick block_dev_data;
        ] );
      ( "pmem",
        [
          Alcotest.test_case "dax costs" `Quick pmem_dax_costs;
          Alcotest.test_case "dax roundtrip" `Quick pmem_dax_roundtrip;
        ] );
      ( "access",
        [
          Alcotest.test_case "cost ordering" `Quick access_cost_ordering;
          Alcotest.test_case "spdk vs host nvme" `Quick access_spdk_vs_host_nvme;
          Alcotest.test_case "io_uring in between" `Quick access_uring_between_spdk_and_host;
          Alcotest.test_case "moves data" `Quick access_moves_data;
          Alcotest.test_case "buffer validation" `Quick access_rejects_small_buffer;
        ] );
    ]
