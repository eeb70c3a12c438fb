//! Name-matching helpers for user-facing names (the CLI's flags, and the
//! platform names the CLI and the serve daemon resolve through
//! `crispr_core::Platform`): Levenshtein edit distance, the "did you
//! mean" suggestion built on it, and the standard unknown-value error
//! message that lists the valid set and appends a near-miss hint.

/// Levenshtein edit distance; intended for short identifier-sized
/// inputs (flag and engine names), O(|a|·|b|) with a single row.
pub fn edit_distance(a: &str, b: &str) -> usize {
    let (a, b): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
    let mut row: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut prev = row[0];
        row[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let cost = if ca == cb { prev } else { prev + 1 };
            prev = row[j + 1];
            row[j + 1] = cost.min(row[j] + 1).min(row[j + 1] + 1);
        }
    }
    row[b.len()]
}

/// The closest allowed name, if any is close enough to be a plausible
/// typo: within edit distance 2, but never further than the candidate's
/// own length allows (a 2-edit hint for a 2-char name matches anything).
pub fn suggest<'a>(key: &str, allowed: &[&'a str]) -> Option<&'a str> {
    allowed
        .iter()
        .map(|&f| (edit_distance(key, f), f))
        .min()
        .filter(|&(d, f)| d <= 2.min(f.len().saturating_sub(1)).max(1))
        .map(|(_, f)| f)
}

/// Formats the standard unknown-value error: names what was being
/// parsed, lists the valid set, and appends a "did you mean" hint when
/// one of the valid names is a near-miss.
pub fn unknown_value_message(what: &str, got: &str, allowed: &[&str]) -> String {
    let mut msg = format!("unknown {what} {got:?} (one of: {})", allowed.join(", "));
    if let Some(hint) = suggest(got, allowed) {
        msg.push_str(&format!("; did you mean {hint:?}?"));
    }
    msg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance("", ""), 0);
        assert_eq!(edit_distance("abc", "abc"), 0);
        assert_eq!(edit_distance("abc", "abd"), 1);
        assert_eq!(edit_distance("abc", ""), 3);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
    }

    #[test]
    fn suggest_finds_near_misses_only() {
        let allowed = ["genome", "guides", "threads"];
        assert_eq!(suggest("genom", &allowed), Some("genome"));
        assert_eq!(suggest("guide", &allowed), Some("guides"));
        assert_eq!(suggest("zzzzzz", &allowed), None);
    }

    #[test]
    fn unknown_value_lists_set_and_hints() {
        let msg = unknown_value_message("engine", "cpu-hyprscan", &["cpu-scalar", "cpu-hyperscan"]);
        assert!(msg.contains("unknown engine \"cpu-hyprscan\""), "{msg}");
        assert!(msg.contains("cpu-scalar, cpu-hyperscan"), "{msg}");
        assert!(msg.contains("did you mean \"cpu-hyperscan\"?"), "{msg}");
        let msg = unknown_value_message("engine", "gpu", &["cpu-scalar"]);
        assert!(!msg.contains("did you mean"), "{msg}");
    }
}
