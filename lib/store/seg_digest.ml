(* Segment digests as hash lists: MD5 over the MD5s of the fixed-size
   blocks of a prefix, the MD5 of its trailing partial block, and its
   length. A segment only grows while its store is open, so the hashes
   of full blocks below the committed length are final: they are cached
   per segment id, and a probe reads only the blocks appended since the
   last one plus the tail. *)

let block_size = 64 * 1024

let md5_len = 16

(* Segment id -> the raw MD5s of its leading full blocks, in order. *)
type t = (int, Buffer.t) Hashtbl.t

let create () : t = Hashtbl.create 8
let reset (t : t) = Hashtbl.reset t

let prune (t : t) live =
  Hashtbl.filter_map_inplace (fun id b -> if List.mem_assoc id live then Some b else None) t

let seg_path dir id = Filename.concat dir (Segment.seg_name id)

let extent ~dir (id, committed) =
  match Unix.stat (seg_path dir id) with
  | st -> min committed st.Unix.st_size
  | exception Unix.Unix_error _ -> 0

let combine ~blocks ~tail ~len =
  Digest.to_hex (Digest.string (blocks ^ Digest.string tail ^ string_of_int len))

let of_string data =
  let len = String.length data in
  let nfull = len / block_size in
  let blocks = Buffer.create (md5_len * nfull) in
  for i = 0 to nfull - 1 do
    Buffer.add_string blocks (Digest.substring data (i * block_size) block_size)
  done;
  let tail_off = nfull * block_size in
  combine ~blocks:(Buffer.contents blocks)
    ~tail:(String.sub data tail_off (len - tail_off))
    ~len

let read_fd fd ~off ~len =
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  let b = Bytes.create len in
  let rec go o =
    if o < len then
      match Unix.read fd b o (len - o) with 0 -> raise End_of_file | n -> go (o + n)
  in
  go 0;
  Bytes.unsafe_to_string b

let with_fd dir id f =
  let fd = Unix.openfile (seg_path dir id) [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ()) (fun () -> f fd)

let read ~dir ~id ~off ~len = if len = 0 then "" else with_fd dir id (read_fd ~off ~len)

let digest (t : t) ~dir ~id ~upto =
  let blocks =
    match Hashtbl.find_opt t id with
    | Some b -> b
    | None ->
      let b = Buffer.create 64 in
      Hashtbl.replace t id b;
      b
  in
  let nfull = upto / block_size in
  let tail_off = nfull * block_size in
  let tail =
    if Buffer.length blocks / md5_len >= nfull && upto = tail_off then ""
    else
      with_fd dir id (fun fd ->
          for i = Buffer.length blocks / md5_len to nfull - 1 do
            Buffer.add_string blocks
              (Digest.string (read_fd fd ~off:(i * block_size) ~len:block_size))
          done;
          read_fd fd ~off:tail_off ~len:(upto - tail_off))
  in
  combine ~blocks:(Buffer.sub blocks 0 (md5_len * nfull)) ~tail ~len:upto
