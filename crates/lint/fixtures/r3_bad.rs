// R3 positive fixture: every panic shape the request path bans.

fn handle(buf: &[u8]) -> u8 {
    let first = buf[0]; //~ R3
    let parsed: u32 = std::str::from_utf8(buf).unwrap().parse().unwrap(); //~ R3 R3
    if parsed > 10 {
        panic!("too big"); //~ R3
    }
    first
}

fn must(v: Option<u8>) -> u8 {
    v.expect("present") //~ R3
}

fn never(x: u8) -> u8 {
    match x {
        0 => 1,
        _ => unreachable!(), //~ R3
    }
}

// The two shapes the JSON lexer had before R3 covered it: a range index
// on the input and an `expect` on bytes "known" to be ASCII.
fn lex_number(bytes: &[u8], start: usize, pos: usize) -> &str {
    if bytes[pos..].starts_with(b"-") { //~ R3
        return "-";
    }
    std::str::from_utf8(&bytes[start..pos]).expect("ascii number bytes") //~ R3 R3
}
