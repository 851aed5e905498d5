(* Prometheus text scraped from the server's /metrics, reduced to the
   samples the benchmark reads: counters are compared as deltas across
   the timed window, gauges read at its end. *)

type sample = { name : string; labels : (string * string) list; value : float }
type t = sample list

let parse_labels s =
  (* [k="v",k2="v2"]; label values here are shard/replica/tenant ids, so
     no escaped quotes need handling beyond skipping them. *)
  let n = String.length s in
  let rec go i acc =
    if i >= n then List.rev acc
    else
      match String.index_from_opt s i '=' with
      | None -> List.rev acc
      | Some eq ->
        let key = String.trim (String.sub s i (eq - i)) in
        let vstart = eq + 2 in
        let rec close j =
          if j >= n then n else if s.[j] = '"' && s.[j - 1] <> '\\' then j else close (j + 1)
        in
        let vend = close vstart in
        let v = String.sub s vstart (max 0 (vend - vstart)) in
        let next = if vend + 1 < n && s.[vend + 1] = ',' then vend + 2 else vend + 1 in
        go next ((key, v) :: acc)
  in
  go 0 []

let parse text : t =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         if line = "" || line.[0] = '#' then None
         else
           match String.rindex_opt line ' ' with
           | None -> None
           | Some sp -> (
             let head = String.sub line 0 sp in
             match float_of_string_opt (String.sub line (sp + 1) (String.length line - sp - 1)) with
             | None -> None
             | Some value -> (
               match String.index_opt head '{' with
               | None -> Some { name = head; labels = []; value }
               | Some b ->
                 let inner = String.sub head (b + 1) (String.length head - b - 2) in
                 Some { name = String.sub head 0 b; labels = parse_labels inner; value })))

(* Sum of every sample of [name] whose labels include [where]. Shard- and
   replica-labelled families sum across their labels; a family the
   topology does not export reads as 0. *)
let sum ?(where = []) (t : t) name =
  List.fold_left
    (fun acc s ->
      if s.name = name && List.for_all (fun kv -> List.mem kv s.labels) where then
        acc +. s.value
      else acc)
    0. t

let delta ?where ~before ~after name = sum ?where after name -. sum ?where before name

let count (t : t) name = List.length (List.filter (fun s -> s.name = name) t)

(* The label value of the sample of [name] equal to [value], e.g. the
   replica whose role gauge reads 1. *)
let label_where (t : t) name ~label ~value =
  List.find_map
    (fun s -> if s.name = name && s.value = value then List.assoc_opt label s.labels else None)
    t
