let psz = Hw.Defs.page_size

type t = {
  file : Env.file;
  fkey : string;
  lkey : string;
  nrecs : int;
  ndata : int; (* data pages *)
  index_page0 : int;
  nindex : int;
  bloom_page0 : int;
  nbloom : int;
  (* Parsed from the bytes the first read of each returned; later reads
     still go through the env, into [discard]. *)
  mutable bloom : Bloom.t option;
  mutable index : (string * int) array option;
  mutable discard : Bytes.t; (* never looked at *)
  mutable free_blocks : Bytes.t list; (* idle 4 KiB block buffers *)
}

let record_bytes k v = 6 + String.length k + String.length v

(* ---- building ---- *)

let pack_blocks records =
  (* Greedily fill 4 KiB blocks; a record never spans blocks. *)
  let blocks = ref [] in
  let cur = Buffer.create psz in
  let cur_first = ref None in
  let flush () =
    match !cur_first with
    | None -> ()
    | Some fk ->
        let b = Bytes.make psz '\000' in
        Buffer.blit cur 0 b 0 (Buffer.length cur);
        blocks := (fk, b) :: !blocks;
        Buffer.clear cur;
        cur_first := None
  in
  List.iter
    (fun (k, v) ->
      let need = record_bytes k v in
      if need > psz then invalid_arg "Sst: record larger than a block";
      if Buffer.length cur + need > psz then flush ();
      if !cur_first = None then cur_first := Some k;
      Buffer.add_uint16_le cur (String.length k);
      Buffer.add_int32_le cur (Int32.of_int (String.length v));
      Buffer.add_string cur k;
      Buffer.add_string cur v)
    records;
  flush ();
  List.rev !blocks

let pack_index firsts =
  let buf = Buffer.create psz in
  List.iteri
    (fun block_no fk ->
      Buffer.add_uint16_le buf (String.length fk);
      Buffer.add_int32_le buf (Int32.of_int block_no);
      Buffer.add_string buf fk)
    firsts;
  let len = Buffer.length buf in
  let pages = max 1 ((len + psz - 1) / psz) in
  let out = Bytes.make (pages * psz) '\000' in
  Buffer.blit buf 0 out 0 len;
  (out, pages)

let build env ~name records =
  let nrecs, lkey =
    match records with
    | [] -> invalid_arg "Sst.build: empty"
    | (k, _) :: rest -> List.fold_left (fun (n, _) (k, _) -> (n + 1, k)) (1, k) rest
  in
  let blocks = pack_blocks records in
  let firsts = List.map fst blocks in
  let index_bytes, nindex = pack_index firsts in
  let bloom = Bloom.create ~expected_keys:nrecs in
  List.iter (fun (k, _) -> Bloom.add bloom k) records;
  let bloom_ser = Bloom.serialize bloom in
  let nbloom = max 1 ((Bytes.length bloom_ser + psz - 1) / psz) in
  let bloom_bytes = Bytes.make (nbloom * psz) '\000' in
  Bytes.blit bloom_ser 0 bloom_bytes 0 (Bytes.length bloom_ser);
  let ndata = List.length blocks in
  let total = ndata + nindex + nbloom in
  let file = Env.create_file env ~name ~size_pages:total in
  (* write data blocks in one sequential pass *)
  let data = Bytes.create (ndata * psz) in
  List.iteri (fun i (_, b) -> Bytes.blit b 0 data (i * psz) psz) blocks;
  Env.write file ~off:0 ~src:data;
  Env.write file ~off:(ndata * psz) ~src:index_bytes;
  Env.write file ~off:((ndata + nindex) * psz) ~src:bloom_bytes;
  Env.sync file;
  {
    file;
    fkey = fst (List.hd records);
    lkey;
    nrecs;
    ndata;
    index_page0 = ndata;
    nindex;
    bloom_page0 = ndata + nindex;
    nbloom;
    bloom = None;
    index = None;
    discard = Bytes.empty;
    free_blocks = [];
  }

let first_key t = t.fkey
let last_key t = t.lkey
let nrecords t = t.nrecs
let data_pages t = t.ndata
let total_pages t = t.ndata + t.nindex + t.nbloom

(* ---- reading ---- *)

(* Every lookup reads the filter and the index through the env.  Their
   parsed form is kept from the first read; later reads land in
   [t.discard] and are never looked at, so the env still sees, charges and
   may fail the same access. *)
let discard_read t ~off ~len =
  if Bytes.length t.discard < len then t.discard <- Bytes.create len;
  Env.read t.file ~off ~len ~dst:t.discard

(* Bytes that will be parsed need a buffer of their own: another get may
   read into [t.discard] while this read is suspended. *)
let first_read t ~off ~len =
  let b = Bytes.create len in
  Env.read t.file ~off ~len ~dst:b;
  b

let read_bloom t =
  let off = t.bloom_page0 * psz and len = t.nbloom * psz in
  match t.bloom with
  | Some bloom ->
      discard_read t ~off ~len;
      bloom
  | None ->
      let bloom = Bloom.deserialize (first_read t ~off ~len) in
      t.bloom <- Some bloom;
      bloom

let parse_index b =
  let entries = ref [] in
  let pos = ref 0 in
  let continue_ = ref true in
  while !continue_ && !pos + 6 <= Bytes.length b do
    let klen = Bytes.get_uint16_le b !pos in
    if klen = 0 then continue_ := false
    else begin
      let block_no = Int32.to_int (Bytes.get_int32_le b (!pos + 2)) in
      let k = Bytes.sub_string b (!pos + 6) klen in
      entries := (k, block_no) :: !entries;
      pos := !pos + 6 + klen
    end
  done;
  Array.of_list (List.rev !entries)

let read_index t =
  let off = t.index_page0 * psz and len = t.nindex * psz in
  match t.index with
  | Some index ->
      discard_read t ~off ~len;
      index
  | None ->
      let index = parse_index (first_read t ~off ~len) in
      t.index <- Some index;
      index

(* Largest index entry with first_key <= key. *)
let locate_block index key =
  let n = Array.length index in
  if n = 0 || String.compare (fst index.(0)) key > 0 then None
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if String.compare (fst index.(mid)) key <= 0 then lo := mid else hi := mid - 1
    done;
    Some (snd index.(!lo))
  end

(* Block buffers come from a per-SST free list: a get can suspend between
   its block read and its parse, while another get on the same SST runs. *)
let read_block t block_no =
  let b =
    match t.free_blocks with
    | b :: rest ->
        t.free_blocks <- rest;
        b
    | [] -> Bytes.create psz
  in
  Env.read t.file ~off:(block_no * psz) ~len:psz ~dst:b;
  b

let release_block t b = t.free_blocks <- b :: t.free_blocks

let value_len b pos = Int32.to_int (Bytes.get_int32_le b (pos + 2))

(* [key_len b pos] is the key length of the record at [pos], or 0 at the
   end of the block. *)
let key_len b pos =
  if pos + 6 > psz then 0
  else begin
    let klen = Bytes.get_uint16_le b pos in
    if klen > 0 then begin
      let vlen = value_len b pos in
      if vlen < 0 || pos + 6 + klen + vlen > psz then invalid_arg "Sst: corrupt block"
    end;
    klen
  end

let parse_block b f =
  let rec go pos =
    let klen = key_len b pos in
    if klen > 0 then begin
      let vlen = value_len b pos in
      let k = Bytes.sub_string b (pos + 6) klen in
      let v = Bytes.sub_string b (pos + 6 + klen) vlen in
      if f k v then go (pos + 6 + klen + vlen)
    end
  in
  go 0

(* Orders the [klen]-byte key stored at [pos] against [key] as
   [String.compare] does, without copying it. *)
let compare_stored b pos klen key =
  let n = String.length key in
  let rec go i =
    if i = klen || i = n then Int.compare klen n
    else
      let c = Char.compare (Bytes.get b (pos + i)) key.[i] in
      if c <> 0 then c else go (i + 1)
  in
  go 0

(* In-place search of a block's sorted records: only the value found is
   copied out. *)
let find_in_block b key =
  let rec go pos =
    let klen = key_len b pos in
    if klen = 0 then None
    else begin
      let vlen = value_len b pos in
      let c = compare_stored b (pos + 6) klen key in
      if c = 0 then Some (Bytes.sub_string b (pos + 6 + klen) vlen)
      else if c < 0 then go (pos + 6 + klen + vlen)
      else None
    end
  in
  go 0

let get t key =
  if String.compare key t.fkey < 0 || String.compare key t.lkey > 0 then None
  else begin
    let bloom = read_bloom t in
    Kv_costs.(charge "kv_get_bloom" bloom_probe);
    if not (Bloom.mem bloom key) then None
    else begin
      let index = read_index t in
      Kv_costs.(charge "kv_get_index" index_search);
      match locate_block index key with
      | None -> None
      | Some block_no ->
          let b = read_block t block_no in
          Kv_costs.(charge "kv_get_block" block_scan);
          let found = find_in_block b key in
          release_block t b;
          found
    end
  end

let locate_start_block t start =
  let index = read_index t in
  Kv_costs.(charge "kv_scan_index" index_search);
  match locate_block index start with None -> 0 | Some b -> b

let iter_from t ~start ~f =
  let block = ref (locate_start_block t start) in
  let stop = ref false in
  while (not !stop) && !block < t.ndata do
    let b = read_block t !block in
    Kv_costs.(charge "kv_scan_block" block_scan);
    parse_block b (fun k v ->
        if k < start then true
        else if f k v then true
        else begin
          stop := true;
          false
        end);
    release_block t b;
    incr block
  done

let read_block_records t b =
  if b < 0 || b >= t.ndata then invalid_arg "Sst.read_block_records";
  let bytes = read_block t b in
  Kv_costs.(charge "kv_scan_block" block_scan);
  let acc = ref [] in
  parse_block bytes (fun k v ->
      acc := (k, v) :: !acc;
      true);
  release_block t bytes;
  List.rev !acc

let delete t = Env.delete t.file
