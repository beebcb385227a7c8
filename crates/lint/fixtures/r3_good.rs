// R3 negative fixture: checked access, non-indexing brackets, and
// panics confined to test code.

fn handle(buf: &[u8]) -> Option<u8> {
    buf.get(0).copied()
}

fn arr() -> [u8; 2] {
    [1, 2]
}

fn grow() -> Vec<u8> {
    vec![1u8, 2]
}

// The lexer's idiom: checked range reads, defaults for the impossible
// case, and methods whose names merely start like the banned ones.
fn lex_number(text: &str, start: usize, pos: usize) -> &str {
    let rest = text.as_bytes().get(pos..).unwrap_or_default();
    if matches!(rest.first(), Some(b'-' | b'0'..=b'9')) {
        return text.get(start..pos).unwrap_or_default();
    }
    text.split_at_checked(pos).map_or("", |(head, _)| head)
}

#[cfg(test)]
mod tests {
    #[test]
    fn indexing_and_unwraps_in_tests_are_fine() {
        let v = vec![1u8, 2];
        assert_eq!(v[0], 1);
        let _ = v.last().unwrap();
        if v.len() > 2 {
            panic!("impossible");
        }
    }
}
