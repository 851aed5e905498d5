(* The replication frame family: payload codecs for log shipping,
   catch-up, and promotion over the shard UDS channels.

   Every payload rides inside the [Frame] wire discipline (u32 length,
   u8 version, payload, u32 crc32, structured 'N' nack) exactly like
   the shard generate op; this module defines only the payload formats.
   Op byte first, then op-specific fields:

     'P'                  ping                     reply "P"
     'W' write            replicate one operation  reply 'A' write_reply
     'U' undo             roll the log back to a position     reply "K"
     'S' status           position / epoch / segment digests  reply 'T'
     'E' promote          adopt a new term, append the marker reply 'T'
     'F' fetch            segment byte range (catch-up)       reply 'B'
     'H' prefix digest    digest of a segment prefix          reply 'B'
     'I' install          stage a segment splice              reply "K"
     'Z' commit           apply staged splices, reopen        reply 'T'
     'G' get              read one document                   reply 'V'
     'M' metrics          store Prometheus block              reply 'M'+text
     'C' checkpoint       fsync + manifest swap               reply "K"
     'D' drain            checkpoint, close, exit             reply "D"

   The digests in 'S' and 'H' are Seg_digest hash lists in hex: MD5
   over the MD5s of the prefix's 64 KiB blocks, its trailing partial
   block and its length, so the empty prefix has one digest on both.

   A write carries the primary's pre-append position; a replica whose
   log is not exactly there answers a structured nack instead of
   appending — the log-matching property that keeps replica logs
   byte-identical to the primary's prefix. *)

let add_u8 = Frame.add_u8
let add_u32 = Frame.add_u32
let add_lp = Frame.add_lp
let get_u8 = Frame.get_u8
let get_u32 = Frame.get_u32
let get_lp = Frame.get_lp

(* ------------------------------------------------------------------ *)
(* Write                                                               *)
(* ------------------------------------------------------------------ *)

type write = {
  w_epoch : int;
  w_expect : (int * int) option;  (* required pre-append (seg, off); None on the primary *)
  w_kind : [ `Put | `Delete ];
  w_collection : string;
  w_doc : string;
  w_body : string;  (* empty for [`Delete] *)
}

let encode_write w =
  let b = Buffer.create (String.length w.w_body + 64) in
  add_u8 b (Char.code 'W');
  add_u32 b w.w_epoch;
  (match w.w_expect with
  | None -> add_u8 b 0
  | Some (seg, off) ->
    add_u8 b 1;
    add_u32 b seg;
    add_u32 b off);
  add_u8 b (Char.code (match w.w_kind with `Put -> 'P' | `Delete -> 'D'));
  add_lp b w.w_collection;
  add_lp b w.w_doc;
  add_lp b w.w_body;
  Buffer.contents b

let decode_write payload pos =
  let w_epoch = get_u32 payload pos in
  let w_expect =
    match get_u8 payload pos with
    | 0 -> None
    | _ ->
      let seg = get_u32 payload pos in
      let off = get_u32 payload pos in
      Some (seg, off)
  in
  let w_kind =
    match Char.chr (get_u8 payload pos) with
    | 'P' -> `Put
    | 'D' -> `Delete
    | c -> Frame.perr "unknown write kind %C" c
  in
  let w_collection = get_lp payload pos in
  let w_doc = get_lp payload pos in
  let w_body = get_lp payload pos in
  { w_epoch; w_expect; w_kind; w_collection; w_doc; w_body }

type write_reply = {
  a_applied : bool;  (* false: a delete of an absent doc — nothing appended *)
  a_hash : string;
  a_pre : int * int;  (* position the record went in at (seg, off) *)
  a_post : int * int;
}

let encode_write_reply a =
  let b = Buffer.create 64 in
  add_u8 b (Char.code 'A');
  add_u8 b (if a.a_applied then 1 else 0);
  add_lp b a.a_hash;
  add_u32 b (fst a.a_pre);
  add_u32 b (snd a.a_pre);
  add_u32 b (fst a.a_post);
  add_u32 b (snd a.a_post);
  Buffer.contents b

let decode_write_reply payload =
  let pos = ref 0 in
  (match Char.chr (get_u8 payload pos) with
  | 'A' -> ()
  | c -> Frame.perr "expected write reply, got %C" c);
  let a_applied = get_u8 payload pos = 1 in
  let a_hash = get_lp payload pos in
  let ps = get_u32 payload pos in
  let po = get_u32 payload pos in
  let qs = get_u32 payload pos in
  let qo = get_u32 payload pos in
  { a_applied; a_hash; a_pre = (ps, po); a_post = (qs, qo) }

(* ------------------------------------------------------------------ *)
(* Undo                                                                *)
(* ------------------------------------------------------------------ *)

let encode_undo ~epoch ~seg ~off =
  let b = Buffer.create 16 in
  add_u8 b (Char.code 'U');
  add_u32 b epoch;
  add_u32 b seg;
  add_u32 b off;
  Buffer.contents b

let decode_undo payload pos =
  let epoch = get_u32 payload pos in
  let seg = get_u32 payload pos in
  let off = get_u32 payload pos in
  (epoch, seg, off)

(* ------------------------------------------------------------------ *)
(* Status                                                              *)
(* ------------------------------------------------------------------ *)

type seg_info = { g_id : int; g_len : int; g_digest : string (* "" if not requested *) }

type status = {
  st_epoch : int;
  st_pos : int * int;  (* next-append position *)
  st_total : int;  (* durable log bytes *)
  st_segs : seg_info list;
  st_quarantined : int;
}

let encode_status_req ~digests =
  let b = Buffer.create 4 in
  add_u8 b (Char.code 'S');
  add_u8 b (if digests then 1 else 0);
  Buffer.contents b

let encode_status st =
  let b = Buffer.create 128 in
  add_u8 b (Char.code 'T');
  add_u32 b st.st_epoch;
  add_u32 b (fst st.st_pos);
  add_u32 b (snd st.st_pos);
  add_u32 b st.st_total;
  add_u32 b st.st_quarantined;
  add_u32 b (List.length st.st_segs);
  List.iter
    (fun g ->
      add_u32 b g.g_id;
      add_u32 b g.g_len;
      add_lp b g.g_digest)
    st.st_segs;
  Buffer.contents b

let decode_status payload =
  let pos = ref 0 in
  (match Char.chr (get_u8 payload pos) with
  | 'T' -> ()
  | c -> Frame.perr "expected status reply, got %C" c);
  let st_epoch = get_u32 payload pos in
  let ps = get_u32 payload pos in
  let po = get_u32 payload pos in
  let st_total = get_u32 payload pos in
  let st_quarantined = get_u32 payload pos in
  let nsegs = get_u32 payload pos in
  let st_segs =
    List.init nsegs (fun _ ->
        let g_id = get_u32 payload pos in
        let g_len = get_u32 payload pos in
        let g_digest = get_lp payload pos in
        { g_id; g_len; g_digest })
  in
  { st_epoch; st_pos = (ps, po); st_total; st_segs; st_quarantined }

(* ------------------------------------------------------------------ *)
(* Promote                                                             *)
(* ------------------------------------------------------------------ *)

let encode_promote ~epoch =
  let b = Buffer.create 8 in
  add_u8 b (Char.code 'E');
  add_u32 b epoch;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Catch-up: fetch / install / commit                                  *)
(* ------------------------------------------------------------------ *)

let encode_fetch ~seg ~from ~upto =
  let b = Buffer.create 16 in
  add_u8 b (Char.code 'F');
  add_u32 b seg;
  add_u32 b from;
  add_u32 b upto;
  Buffer.contents b

let decode_fetch payload pos =
  let seg = get_u32 payload pos in
  let from = get_u32 payload pos in
  let upto = get_u32 payload pos in
  (seg, from, upto)

(* Digest of segment [seg]'s first [upto] bytes — the anti-entropy
   prefix check that decides between streaming a suffix and replacing a
   whole segment, without moving the prefix itself. *)
let encode_prefix_digest ~seg ~upto =
  let b = Buffer.create 16 in
  add_u8 b (Char.code 'H');
  add_u32 b seg;
  add_u32 b upto;
  Buffer.contents b

let decode_prefix_digest payload pos =
  let seg = get_u32 payload pos in
  let upto = get_u32 payload pos in
  (seg, upto)

let encode_bytes data =
  let b = Buffer.create (String.length data + 8) in
  add_u8 b (Char.code 'B');
  add_lp b data;
  Buffer.contents b

let decode_bytes payload =
  let pos = ref 0 in
  (match Char.chr (get_u8 payload pos) with
  | 'B' -> ()
  | c -> Frame.perr "expected bytes reply, got %C" c);
  get_lp payload pos

(* Stage a splice: replace segment [seg]'s bytes from offset [from]
   with [data] (from = 0 replaces the whole file, header included). *)
let encode_install ~seg ~from data =
  let b = Buffer.create (String.length data + 16) in
  add_u8 b (Char.code 'I');
  add_u32 b seg;
  add_u32 b from;
  add_lp b data;
  Buffer.contents b

let decode_install payload pos =
  let seg = get_u32 payload pos in
  let from = get_u32 payload pos in
  let data = get_lp payload pos in
  (seg, from, data)

(* Apply every staged splice, delete segments not in [segs] (and the
   manifest checkpoint, so reopen replays the spliced files from their
   headers), reopen, adopt [epoch]. *)
let encode_commit ~epoch segs =
  let b = Buffer.create 32 in
  add_u8 b (Char.code 'Z');
  add_u32 b epoch;
  add_u32 b (List.length segs);
  List.iter (fun id -> add_u32 b id) segs;
  Buffer.contents b

let decode_commit payload pos =
  let epoch = get_u32 payload pos in
  let n = get_u32 payload pos in
  let segs = List.init n (fun _ -> get_u32 payload pos) in
  (epoch, segs)

(* ------------------------------------------------------------------ *)
(* Get                                                                 *)
(* ------------------------------------------------------------------ *)

let encode_get ~collection ~doc =
  let b = Buffer.create 64 in
  add_u8 b (Char.code 'G');
  add_lp b collection;
  add_lp b doc;
  Buffer.contents b

let decode_get payload pos =
  let collection = get_lp payload pos in
  let doc = get_lp payload pos in
  (collection, doc)

let encode_get_reply = function
  | None ->
    let b = Buffer.create 8 in
    add_u8 b (Char.code 'V');
    add_u8 b 0;
    add_lp b "";
    add_lp b "";
    Buffer.contents b
  | Some (snapshot, hash) ->
    let b = Buffer.create (String.length snapshot + 64) in
    add_u8 b (Char.code 'V');
    add_u8 b 1;
    add_lp b snapshot;
    add_lp b hash;
    Buffer.contents b

let decode_get_reply payload =
  let pos = ref 0 in
  (match Char.chr (get_u8 payload pos) with
  | 'V' -> ()
  | c -> Frame.perr "expected get reply, got %C" c);
  let found = get_u8 payload pos = 1 in
  let snapshot = get_lp payload pos in
  let hash = get_lp payload pos in
  if found then Some (snapshot, hash) else None
