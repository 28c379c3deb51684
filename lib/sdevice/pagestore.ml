let psz = Hw.Defs.page_size

type t = { pages : (int, Bytes.t) Hashtbl.t }

let create () = { pages = Hashtbl.create 1024 }

let get_page t p =
  match Hashtbl.find_opt t.pages p with
  | Some b -> b
  | None ->
      let b = Bytes.make psz '\000' in
      Hashtbl.replace t.pages p b;
      b

(* Every unwritten page reads from this one page; callers only copy it. *)
let zero_page = Bytes.make psz '\000'

let read_pages t ~page ~count ~into =
  for i = 0 to count - 1 do
    match Hashtbl.find t.pages (page + i) with
    | b -> into i b
    | exception Not_found -> into i zero_page
  done

let write_bytes t ~addr ~src ~src_off ~len =
  if len < 0 || src_off < 0 || src_off + len > Bytes.length src then
    invalid_arg "Pagestore.write_bytes";
  let rec go addr remaining spos =
    if remaining > 0 then begin
      let page = Int64.to_int (Int64.div addr (Int64.of_int psz)) in
      let off = Int64.to_int (Int64.rem addr (Int64.of_int psz)) in
      let chunk = min remaining (psz - off) in
      let b = get_page t page in
      Bytes.blit src spos b off chunk;
      go (Int64.add addr (Int64.of_int chunk)) (remaining - chunk) (spos + chunk)
    end
  in
  go addr len src_off

let read_page t ~page ~dst =
  read_pages t ~page ~count:1 ~into:(fun _ b -> Bytes.blit b 0 dst 0 psz)

let write_page t ~page ~src =
  if Bytes.length src < psz then invalid_arg "Pagestore.write_page: src too small";
  let b = get_page t page in
  Bytes.blit src 0 b 0 psz

let allocated_pages t = Hashtbl.length t.pages

let digest t =
  Hashtbl.fold
    (fun p b acc -> if Bytes.equal b zero_page then acc else (p, b) :: acc)
    t.pages []
  |> List.sort (fun (p, _) (q, _) -> Int.compare p q)
  |> List.concat_map (fun (p, b) -> [ string_of_int p; ":"; Bytes.to_string b ])
  |> String.concat ""
  |> Digest.string
