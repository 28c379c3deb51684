let psz = Hw.Defs.page_size
let merge_pages = 64

type t = Sdevice.Bufpool.t (* write-back snapshots, one per merged run *)

let create () = Sdevice.Bufpool.create ~pages:merge_pages

(* A run under construction: file, first device page, length, and its
   items newest first. *)
type 'a run = { file : int; start : int; count : int; items : 'a list }

let write t ~access ~translate ~key ~data ~on_io items =
  let sorted = List.sort (fun a b -> Int.compare (key a) (key b)) items in
  let runs =
    List.fold_left
      (fun runs item ->
        let k = key item in
        let file = Pagekey.file_of k in
        match translate file (Pagekey.page_of k) with
        | None -> runs
        | Some dev -> (
            match runs with
            | r :: rest
              when r.file = file && dev = r.start + r.count && r.count < merge_pages ->
                { r with count = r.count + 1; items = item :: r.items } :: rest
            | _ -> { file; start = dev; count = 1; items = [ item ] } :: runs))
      [] sorted
  in
  (* Snapshot each run only when its write is issued: the earlier runs'
     writes suspend, and stores made meanwhile belong in this one. *)
  let flush r =
    let items = List.rev r.items in
    let snap = Sdevice.Bufpool.take t in
    List.iteri (fun i item -> Bytes.blit (data item) 0 snap (i * psz) psz) items;
    let res =
      Sdevice.Access.write_pages_result (access r.file) ~page:r.start
        ~count:r.count ~src:snap
    in
    (* only now has the device copied the snapshot *)
    Sdevice.Bufpool.give t snap;
    match res with
    | Ok () ->
        on_io r.count;
        []
    | Error e ->
        if Trace.on () then Sim.Probe.instant ~cat:"fault" "wb_error";
        List.map (fun item -> (item, e)) items
  in
  let failed = List.concat_map flush (List.rev runs) in
  (List.fold_left (fun n r -> n + r.count) 0 runs, failed)
