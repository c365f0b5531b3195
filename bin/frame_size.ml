open Cmdliner

let check rows cols =
  if rows > 0 && cols > 0 && rows mod 9 = 0 && cols mod 8 = 0 then
    Ok (rows, cols)
  else
    Error
      "rows must be a positive multiple of 9 and cols a positive multiple \
       of 8"

let term ~rows ~cols =
  let flag name default doc = Arg.(value & opt int default & info [ name ] ~doc) in
  let rows = flag "rows" rows "Frame rows (a multiple of 9)." in
  let cols = flag "cols" cols "Frame columns (a multiple of 8)." in
  Term.(term_result' (const check $ rows $ cols))
