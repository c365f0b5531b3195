type t = { rows : int; cols : int; frames : int }

let paper = { rows = 1080; cols = 1920; frames = 300 }

let validation = { rows = 72; cols = 64; frames = 2 }

let pixels s = s.rows * s.cols

let h_out_cols s = s.cols / 8 * 3

let v_out_rows s = s.rows / 9 * 4

let planes = 3
