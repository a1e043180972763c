(* CRC-32 (IEEE 802.3 polynomial), slicing-by-8. Used to detect torn or
   corrupted records in the write-ahead log.

   [tables] holds eight 256-entry tables back to back: table 0 is the
   classic bytewise table, and table k advances a byte's contribution by
   k further zero bytes, so one step folds eight input bytes with eight
   independent lookups instead of a chain of eight dependent ones. *)

let tables =
  let t = Array.make 2048 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      if !c land 1 = 1 then c := 0xEDB88320 lxor (!c lsr 1) else c := !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xFF)
    done
  done;
  t

let[@inline] byte s i = Char.code (String.unsafe_get s i)

(* One range check up front; every read inside the loops is then in
   bounds, and every table index is masked to its 256-entry table. *)
let sub ?(init = 0xFFFFFFFF) s off len =
  if off < 0 || len < 0 || off > String.length s - len then invalid_arg "Crc32.sub";
  let t = tables in
  let c = ref init in
  let i = ref off in
  let words_end = off + (len land lnot 7) in
  while !i < words_end do
    let p = !i in
    let x =
      !c
      lxor (byte s p lor (byte s (p + 1) lsl 8) lor (byte s (p + 2) lsl 16)
           lor (byte s (p + 3) lsl 24))
    in
    c :=
      Array.unsafe_get t (1792 + (x land 0xFF))
      lxor Array.unsafe_get t (1536 + ((x lsr 8) land 0xFF))
      lxor Array.unsafe_get t (1280 + ((x lsr 16) land 0xFF))
      lxor Array.unsafe_get t (1024 + ((x lsr 24) land 0xFF))
      lxor Array.unsafe_get t (768 + byte s (p + 4))
      lxor Array.unsafe_get t (512 + byte s (p + 5))
      lxor Array.unsafe_get t (256 + byte s (p + 6))
      lxor Array.unsafe_get t (byte s (p + 7));
    i := p + 8
  done;
  for p = words_end to off + len - 1 do
    c := Array.unsafe_get t ((!c lxor byte s p) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let string ?init s = sub ?init s 0 (String.length s)
