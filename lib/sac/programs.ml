(* The SAC sources of the paper's Figures 4-7, kept as close to the
   published listings as the (fixed) typos allow.  Sizes are spliced in
   by the [main] builders so the optimiser sees constant shapes, exactly
   like the specialised code of Figure 8. *)

let input_tiler =
  {|
int[*] input_tiler(int[*] in_frame, int[.] in_pattern,
                   int[.] repetition, int[.] origin,
                   int[.,.] fitting, int[.,.] paving)
{
    output = with {
        (. <= rep <= .) {
            tile = with {
                (. <= pat <= .) {
                    off = origin +
                          MV( CAT( paving, fitting), rep++pat);
                    iv = off % shape(in_frame);
                    elem = in_frame[iv];
                } : elem;
            } : genarray( in_pattern, 0);
        } : tile;
    } : genarray( repetition);
    return( output);
}
|}

let generic_output_tiler =
  {|
int[*] generic_output_tiler(int[*] out_frame,
    int[*] input, int[.] out_pattern, int[.] repetition,
    int[.] origin, int[.,.] fitting, int[.,.] paving)
{
    for( i = 0; i < repetition[[0]]; i++) {
        for( j = 0; j < repetition[[1]]; j++) {
            for( k = 0; k < out_pattern[[0]]; k++) {
                off = origin + MV( CAT( paving, fitting), [i, j, k]);
                iv = off % shape( out_frame);
                out_frame[iv] = input[[i, j, k]];
            }
        }
    }
    return( out_frame);
}
|}

let task_h =
  {|
int[*] task_h(int[*] input, int[.] out_pattern, int[.] repetition)
{
    output = with {
        (. <= rep <= .) {
            tile = genarray( out_pattern, 0);
            tmp0 = input[rep][0] + input[rep][1] +
                   input[rep][2] + input[rep][3] +
                   input[rep][4] + input[rep][5];
            tile[0] = tmp0 / 6 - tmp0 % 6;
            tmp1 = input[rep][2] + input[rep][3] +
                   input[rep][4] + input[rep][5] +
                   input[rep][6] + input[rep][7];
            tile[1] = tmp1 / 6 - tmp1 % 6;
            tmp2 = input[rep][5] + input[rep][6] +
                   input[rep][7] + input[rep][8] +
                   input[rep][9] + input[rep][10];
            tile[2] = tmp2 / 6 - tmp2 % 6;
        } : tile;
    } : genarray( repetition);
    return( output);
}
|}

let task_v =
  {|
int[*] task_v(int[*] input, int[.] out_pattern, int[.] repetition)
{
    output = with {
        (. <= rep <= .) {
            tile = genarray( out_pattern, 0);
            tmp0 = input[rep][0] + input[rep][1] +
                   input[rep][2] + input[rep][3] +
                   input[rep][4] + input[rep][5];
            tile[0] = tmp0 / 6 - tmp0 % 6;
            tmp1 = input[rep][2] + input[rep][3] +
                   input[rep][4] + input[rep][5] +
                   input[rep][6] + input[rep][7];
            tile[1] = tmp1 / 6 - tmp1 % 6;
            tmp2 = input[rep][5] + input[rep][6] +
                   input[rep][7] + input[rep][8] +
                   input[rep][9] + input[rep][10];
            tile[2] = tmp2 / 6 - tmp2 % 6;
            tmp3 = input[rep][8] + input[rep][9] +
                   input[rep][10] + input[rep][11] +
                   input[rep][12] + input[rep][13];
            tile[3] = tmp3 / 6 - tmp3 % 6;
        } : tile;
    } : genarray( repetition);
    return( output);
}
|}

let nongeneric_output_tiler_h =
  {|
int[*] nongeneric_output_tiler_h(int[*] output, int[*] input)
{
    output = with {
        ([0,0] <= [i,j] <= . step [1,3]) : input[[i, j/3, 0]];
        ([0,1] <= [i,j] <= . step [1,3]) : input[[i, j/3, 1]];
        ([0,2] <= [i,j] <= . step [1,3]) : input[[i, j/3, 2]];
    } : modarray( output);
    return( output);
}
|}

let nongeneric_output_tiler_v =
  {|
int[*] nongeneric_output_tiler_v(int[*] output, int[*] input)
{
    output = with {
        ([0,0] <= [i,j] <= . step [4,1]) : input[[i/4, j, 0]];
        ([1,0] <= [i,j] <= . step [4,1]) : input[[i/4, j, 1]];
        ([2,0] <= [i,j] <= . step [4,1]) : input[[i/4, j, 2]];
        ([3,0] <= [i,j] <= . step [4,1]) : input[[i/4, j, 3]];
    } : modarray( output);
    return( output);
}
|}

let check_h ~cols =
  if cols <= 0 || cols mod 8 <> 0 then
    invalid_arg "Programs: cols must be a positive multiple of 8"

let check_v ~rows =
  if rows <= 0 || rows mod 9 <> 0 then
    invalid_arg "Programs: rows must be a positive multiple of 9"

(* The horizontal filter body shared by main builders: [frame] must be
   bound, binds [name] to the filtered plane. *)
let h_body ~generic ~rows ~cols ~frame ~name =
  let reps = cols / 8 in
  let out_cols = 3 * reps in
  if generic then
    Printf.sprintf
      {|
    %s_gathered = input_tiler(%s, [11], [%d, %d], [0, 0],
                              [[0], [1]], [[1, 0], [0, 8]]);
    %s_tiles = task_h(%s_gathered, [3], [%d, %d]);
    %s_init = genarray([%d, %d], 0);
    %s = generic_output_tiler(%s_init, %s_tiles, [3], [%d, %d],
                              [0, 0], [[0], [1]], [[1, 0], [0, 3]]);
|}
      name frame rows reps name name rows reps name rows out_cols name name
      name rows reps
  else
    Printf.sprintf
      {|
    %s_gathered = input_tiler(%s, [11], [%d, %d], [0, 0],
                              [[0], [1]], [[1, 0], [0, 8]]);
    %s_tiles = task_h(%s_gathered, [3], [%d, %d]);
    %s_init = genarray([%d, %d], 0);
    %s = nongeneric_output_tiler_h(%s_init, %s_tiles);
|}
      name frame rows reps name name rows reps name rows out_cols name name
      name

let v_body ~generic ~rows ~cols ~frame ~name =
  let reps = rows / 9 in
  let out_rows = 4 * reps in
  if generic then
    Printf.sprintf
      {|
    %s_gathered = input_tiler(%s, [14], [%d, %d], [0, 0],
                              [[1], [0]], [[9, 0], [0, 1]]);
    %s_tiles = task_v(%s_gathered, [4], [%d, %d]);
    %s_init = genarray([%d, %d], 0);
    %s = generic_output_tiler(%s_init, %s_tiles, [4], [%d, %d],
                              [0, 0], [[1], [0]], [[4, 0], [0, 1]]);
|}
      name frame reps cols name name reps cols name out_rows cols name name
      name reps cols
  else
    Printf.sprintf
      {|
    %s_gathered = input_tiler(%s, [14], [%d, %d], [0, 0],
                              [[1], [0]], [[9, 0], [0, 1]]);
    %s_tiles = task_v(%s_gathered, [4], [%d, %d]);
    %s_init = genarray([%d, %d], 0);
    %s = nongeneric_output_tiler_v(%s_init, %s_tiles);
|}
      name frame reps cols name name reps cols name out_rows cols name name
      name

let common_funs ~generic =
  input_tiler
  ^ (if generic then generic_output_tiler
     else nongeneric_output_tiler_h ^ nongeneric_output_tiler_v)
  ^ task_h ^ task_v

let horizontal ~generic ~rows ~cols =
  check_h ~cols;
  let out_cols = cols / 8 * 3 in
  common_funs ~generic
  ^ Printf.sprintf
      {|
int[%d,%d] main(int[%d,%d] frame)
{
%s
    return( result);
}
|}
      rows out_cols rows cols
      (h_body ~generic ~rows ~cols ~frame:"frame" ~name:"result")

let vertical ~generic ~rows ~cols =
  check_v ~rows;
  let out_rows = rows / 9 * 4 in
  common_funs ~generic
  ^ Printf.sprintf
      {|
int[%d,%d] main(int[%d,%d] frame)
{
%s
    return( result);
}
|}
      out_rows cols rows cols
      (v_body ~generic ~rows ~cols ~frame:"frame" ~name:"result")

let downscaler_labels () =
  (* The first two device loops of the plan are the two filters; any
     further kernels keep their generated names. *)
  let labels = ref [ "H. Filter"; "V. Filter" ] in
  fun _ ->
    match !labels with
    | l :: rest ->
        labels := rest;
        l
    | [] -> "Kernel"

let downscaler ~generic ~rows ~cols =
  check_h ~cols;
  check_v ~rows;
  let mid_cols = cols / 8 * 3 in
  let out_rows = rows / 9 * 4 in
  common_funs ~generic
  ^ Printf.sprintf
      {|
int[%d,%d] main(int[%d,%d] frame)
{
%s
%s
    return( result);
}
|}
      out_rows mid_cols rows cols
      (h_body ~generic ~rows ~cols ~frame:"frame" ~name:"hpass")
      (v_body ~generic ~rows:(rows) ~cols:mid_cols ~frame:"hpass"
         ~name:"result")
