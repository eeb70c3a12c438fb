//! Output checks, computed from the generated sequence and the benchmark's
//! own site model rather than from anything the program reports.
//!
//! A site for a guide with a 3′ PAM reads `spacer ++ PAM` 5′→3′ on its
//! strand. A reverse-strand site is reported at the forward-strand
//! position of its leftmost base, so its forward window reads
//! `revcomp(spacer ++ PAM)`. PAM positions must match their IUPAC code;
//! spacer positions count mismatches.

use std::collections::HashMap;

/// A guide: id, spacer bases (`ACGT`) and 3′ PAM (IUPAC codes).
#[derive(Clone, Debug, PartialEq)]
pub struct Guide {
    pub id: String,
    pub spacer: Vec<u8>,
    pub pam: Vec<u8>,
}

impl Guide {
    pub fn site_len(&self) -> usize {
        self.spacer.len() + self.pam.len()
    }
}

/// One reported or expected site. The derived order is the program's
/// normal form: contig, position, guide, strand (forward first).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Hit {
    pub contig: usize,
    pub pos: u64,
    pub guide: usize,
    pub reverse: bool,
    pub mm: u8,
}

impl Hit {
    fn site(&self) -> (usize, u64, usize, bool) {
        (self.contig, self.pos, self.guide, self.reverse)
    }
}

fn complement(b: u8) -> u8 {
    match b {
        b'A' => b'T',
        b'C' => b'G',
        b'G' => b'C',
        b'T' => b'A',
        other => other,
    }
}

pub fn reverse_complement_in_place(seq: &mut [u8]) {
    seq.reverse();
    for b in seq.iter_mut() {
        *b = complement(*b);
    }
}

/// Whether IUPAC `code` accepts `base`.
pub fn pam_accepts(code: u8, base: u8) -> bool {
    let accepted: &[u8] = match code.to_ascii_uppercase() {
        b'A' => b"A",
        b'C' => b"C",
        b'G' => b"G",
        b'T' => b"T",
        b'R' => b"AG",
        b'Y' => b"CT",
        b'S' => b"CG",
        b'W' => b"AT",
        b'K' => b"GT",
        b'M' => b"AC",
        b'B' => b"CGT",
        b'D' => b"AGT",
        b'H' => b"ACT",
        b'V' => b"ACG",
        b'N' => b"ACGT",
        _ => b"",
    };
    accepted.contains(&base)
}

/// The spacer mismatches of `guide` at forward position `pos` on the
/// given strand, or `None` when the PAM does not match or the window
/// leaves the contig.
pub fn score(seq: &[u8], pos: usize, guide: &Guide, reverse: bool) -> Option<u8> {
    let len = guide.site_len();
    let window = seq.get(pos..pos.checked_add(len)?)?;
    // The i-th base of the site, 5′→3′ on the guide's strand.
    let base = |i: usize| if reverse { complement(window[len - 1 - i]) } else { window[i] };
    let spacer_len = guide.spacer.len();
    if !guide.pam.iter().enumerate().all(|(j, &code)| pam_accepts(code, base(spacer_len + j))) {
        return None;
    }
    Some(guide.spacer.iter().enumerate().filter(|&(i, &want)| base(i) != want).count() as u8)
}

/// Parses the program's TSV hit list. Guide ids index `guide_ids` (the
/// order the guides were submitted in) and contig names index
/// `contig_names` (FASTA order).
pub fn parse_tsv(
    text: &str,
    guide_ids: &[&str],
    contig_names: &[&str],
) -> Result<Vec<Hit>, String> {
    let guide_index: HashMap<&str, usize> =
        guide_ids.iter().enumerate().map(|(i, id)| (*id, i)).collect();
    let contig_index: HashMap<&str, usize> =
        contig_names.iter().enumerate().map(|(i, n)| (*n, i)).collect();
    let mut lines = text.lines();
    if lines.next() != Some("#guide\tcontig\tpos\tstrand\tmismatches") {
        return Err("missing TSV header".into());
    }
    let mut hits = Vec::new();
    for line in lines {
        if line.starts_with('#') {
            return Err(format!("unexpected comment line {line:?}"));
        }
        let f: Vec<&str> = line.split('\t').collect();
        let parsed = (|| {
            if f.len() != 5 {
                return None;
            }
            Some(Hit {
                guide: *guide_index.get(f[0])?,
                contig: *contig_index.get(f[1])?,
                pos: f[2].parse().ok()?,
                reverse: match f[3] {
                    "+" => false,
                    "-" => true,
                    _ => return None,
                },
                mm: f[4].parse().ok()?,
            })
        })();
        hits.push(parsed.ok_or_else(|| format!("malformed hit line {line:?}"))?);
    }
    Ok(hits)
}

/// Hits are in the program's normal order with no site reported twice.
pub fn sorted_unique(hits: &[Hit]) -> Result<(), String> {
    match hits.windows(2).find(|w| w[0].site() >= w[1].site()) {
        Some(w) => Err(format!("hits out of order or duplicated: {:?} then {:?}", w[0], w[1])),
        None => Ok(()),
    }
}

/// Every hit, recounted on the generated sequence for its strand, has a
/// matching PAM, the reported mismatch count, and at most `k` mismatches.
/// `guides[h.guide]` is the guide a hit names.
pub fn reverified(hits: &[Hit], seqs: &[&[u8]], guides: &[&Guide], k: u8) -> Result<(), String> {
    for h in hits {
        let seq = seqs.get(h.contig).ok_or_else(|| format!("no contig for {h:?}"))?;
        let guide = guides.get(h.guide).ok_or_else(|| format!("no guide for {h:?}"))?;
        match score(seq, h.pos as usize, guide, h.reverse) {
            Some(mm) if mm == h.mm && mm <= k => {}
            Some(mm) => return Err(format!("{h:?} recounts to {mm} mismatches (k={k})")),
            None => return Err(format!("{h:?} has no PAM or leaves the contig")),
        }
    }
    Ok(())
}

/// Every site in `planted` with at most `k` mismatches is among `hits`
/// (both sorted, guide indices in the same numbering).
pub fn planted_reported(hits: &[Hit], planted: &[Hit], k: u8) -> Result<(), String> {
    match planted.iter().filter(|s| s.mm <= k).find(|s| hits.binary_search(s).is_err()) {
        Some(s) => Err(format!("planted site {s:?} not reported at k={k}")),
        None => Ok(()),
    }
}

/// Every site in a window of `range` on `contig`, for the guides in
/// `chosen`, with at most `k` mismatches, by trying every window.
pub fn brute_force(
    seq: &[u8],
    contig: usize,
    range: std::ops::Range<usize>,
    guides: &[&Guide],
    chosen: &[usize],
    k: u8,
) -> Vec<Hit> {
    let mut out = Vec::new();
    for pos in range.clone() {
        for &g in chosen {
            if pos + guides[g].site_len() > range.end {
                continue;
            }
            for reverse in [false, true] {
                if let Some(mm) = score(seq, pos, guides[g], reverse).filter(|&mm| mm <= k) {
                    out.push(Hit { contig, pos: pos as u64, guide: g, reverse, mm });
                }
            }
        }
    }
    out.sort();
    out
}

/// The hits inside `range` of `contig` for the guides in `chosen` are
/// exactly `expected` (from [`brute_force`]).
pub fn slice_exact(
    hits: &[Hit],
    expected: &[Hit],
    contig: usize,
    range: std::ops::Range<usize>,
    guides: &[&Guide],
    chosen: &[usize],
) -> Result<(), String> {
    let inside: Vec<Hit> = hits
        .iter()
        .filter(|h| {
            h.contig == contig
                && chosen.contains(&h.guide)
                && h.pos as usize >= range.start
                && h.pos as usize + guides[h.guide].site_len() <= range.end
        })
        .copied()
        .collect();
    if inside == expected {
        return Ok(());
    }
    let missing = expected.iter().find(|e| !inside.contains(e));
    let extra = inside.iter().find(|h| !expected.contains(h));
    Err(format!(
        "slice {contig}:{range:?}: {} reported vs {} by brute force (missing {missing:?}, extra {extra:?})",
        inside.len(),
        expected.len()
    ))
}

/// Every hit of `smaller` (a lower k) is in `larger` (a higher k).
pub fn nested(smaller: &[Hit], larger: &[Hit]) -> Result<(), String> {
    match smaller.iter().find(|h| larger.binary_search(h).is_err()) {
        Some(h) => Err(format!("{h:?} found at the lower k but not at the higher")),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn guide(spacer: &str, pam: &str) -> Guide {
        Guide { id: "g".into(), spacer: spacer.as_bytes().to_vec(), pam: pam.as_bytes().to_vec() }
    }

    const SPACER: &str = "ACGTTGCAACGTAGCTAGGA";

    /// `spacer ++ pam` with the first `mm` spacer bases changed.
    fn site(pam: &str, mm: usize) -> Vec<u8> {
        let mut s: Vec<u8> = SPACER.bytes().collect();
        for b in s.iter_mut().take(mm) {
            *b = if *b == b'A' { b'C' } else { b'A' };
        }
        s.extend(pam.bytes());
        s
    }

    fn revcomp(s: &[u8]) -> Vec<u8> {
        let mut v = s.to_vec();
        reverse_complement_in_place(&mut v);
        v
    }

    /// A contig with a forward site at 0 (1 mismatch), a reverse site in
    /// the middle (2 mismatches), a site one over k=2 (3 mismatches) and
    /// a reverse site ending at the last base (0 mismatches).
    fn contig() -> Vec<u8> {
        let mut seq = site("TGG", 1);
        seq.extend(b"TTTTTTTTTT");
        seq.extend(revcomp(&site("AGG", 2)));
        seq.extend(b"TTTTTTTTTT");
        seq.extend(site("CGG", 3));
        seq.extend(b"TTTTTTTTTT");
        seq.extend(revcomp(&site("GGG", 0)));
        seq
    }

    fn truth(k: u8) -> Vec<Hit> {
        let all = [
            Hit { contig: 0, pos: 0, guide: 0, reverse: false, mm: 1 },
            Hit { contig: 0, pos: 33, guide: 0, reverse: true, mm: 2 },
            Hit { contig: 0, pos: 66, guide: 0, reverse: false, mm: 3 },
            Hit { contig: 0, pos: 99, guide: 0, reverse: true, mm: 0 },
        ];
        all.into_iter().filter(|h| h.mm <= k).collect()
    }

    #[test]
    fn brute_force_finds_both_strands_and_both_contig_ends() {
        let seq = contig();
        let g = guide(SPACER, "NGG");
        assert_eq!(seq.len(), 122);
        let found = brute_force(&seq, 0, 0..seq.len(), &[&g], &[0], 2);
        assert_eq!(found, truth(2));
        // The site one mismatch over k appears only when k allows it.
        assert_eq!(brute_force(&seq, 0, 0..seq.len(), &[&g], &[0], 3), truth(3));
        // A range that cuts the last site short does not report it.
        let cut = brute_force(&seq, 0, 0..seq.len() - 1, &[&g], &[0], 2);
        assert_eq!(cut, truth(2)[..2].to_vec());
    }

    #[test]
    fn reverify_rejects_wrong_counts_strands_positions_and_overhangs() {
        let seq = contig();
        let g = guide(SPACER, "NGG");
        let ok = truth(2);
        assert!(reverified(&ok, &[&seq], &[&g], 2).is_ok());
        let mut wrong = ok.clone();
        wrong[0].mm = 0;
        assert!(reverified(&wrong, &[&seq], &[&g], 2).is_err());
        let mut flipped = ok.clone();
        flipped[1].reverse = false;
        assert!(reverified(&flipped, &[&seq], &[&g], 2).is_err());
        let mut shifted = ok.clone();
        shifted[1].pos += 1;
        assert!(reverified(&shifted, &[&seq], &[&g], 2).is_err());
        // Past the contig end, one base short of a full window.
        let overhang = [Hit { contig: 0, pos: 100, guide: 0, reverse: true, mm: 0 }];
        assert!(reverified(&overhang, &[&seq], &[&g], 2).is_err());
        // The site one mismatch over k, even reported with its true count.
        let over = [Hit { contig: 0, pos: 66, guide: 0, reverse: false, mm: 3 }];
        assert!(reverified(&over, &[&seq], &[&g], 2).is_err());
        assert!(reverified(&over, &[&seq], &[&g], 3).is_ok());
    }

    #[test]
    fn iupac_pams_match_their_classes_on_both_strands() {
        // NRG accepts AG and GG, not CG or TG.
        let g = guide(SPACER, "NRG");
        let fwd = site("TAG", 0);
        let rev = revcomp(&site("CGG", 0));
        assert_eq!(score(&fwd, 0, &g, false), Some(0));
        assert_eq!(score(&rev, 0, &g, true), Some(0));
        assert_eq!(score(&site("TCG", 0), 0, &g, false), None);
        assert_eq!(score(&revcomp(&site("TTG", 0)), 0, &g, true), None);
        let mut seq = fwd.clone();
        seq.extend(b"CCCC");
        seq.extend(&rev);
        let found = brute_force(&seq, 0, 0..seq.len(), &[&g], &[0], 0);
        let expected = vec![
            Hit { contig: 0, pos: 0, guide: 0, reverse: false, mm: 0 },
            Hit { contig: 0, pos: 27, guide: 0, reverse: true, mm: 0 },
        ];
        assert_eq!(found, expected);
    }

    #[test]
    fn slice_check_catches_missing_extra_and_out_of_slice_hits() {
        let seq = contig();
        let g = guide(SPACER, "NGG");
        let expected = brute_force(&seq, 0, 30..seq.len(), &[&g], &[0], 2);
        let ok = truth(2);
        assert!(slice_exact(&ok, &expected, 0, 30..seq.len(), &[&g], &[0]).is_ok());
        // Missing the reverse-strand site inside the slice.
        let missing: Vec<Hit> = ok.iter().filter(|h| h.pos != 33).copied().collect();
        assert!(slice_exact(&missing, &expected, 0, 30..seq.len(), &[&g], &[0]).is_err());
        // A bogus extra site inside the slice.
        let mut extra = ok.clone();
        extra.push(Hit { contig: 0, pos: 40, guide: 0, reverse: false, mm: 2 });
        assert!(slice_exact(&extra, &expected, 0, 30..seq.len(), &[&g], &[0]).is_err());
        // The forward site at 0 lies outside the slice and is ignored.
        assert!(slice_exact(&ok[1..], &expected, 0, 30..seq.len(), &[&g], &[0]).is_ok());
    }

    #[test]
    fn planted_sites_must_be_reported_up_to_k_only() {
        let planted = truth(3);
        let reported = truth(2);
        assert!(planted_reported(&reported, &planted, 2).is_ok());
        assert!(planted_reported(&reported, &planted, 3).is_err());
        assert!(planted_reported(&reported[1..], &planted, 2).is_err());
        // The right site with the wrong count is not the planted site.
        let mut miscounted = reported.clone();
        miscounted[0].mm = 2;
        assert!(planted_reported(&miscounted, &planted, 2).is_err());
    }

    #[test]
    fn order_duplicates_and_nesting_are_checked() {
        let hits = truth(3);
        assert!(sorted_unique(&hits).is_ok());
        let mut swapped = hits.clone();
        swapped.swap(0, 1);
        assert!(sorted_unique(&swapped).is_err());
        let mut duplicated = hits.clone();
        duplicated.insert(1, Hit { mm: 2, ..hits[0] });
        assert!(sorted_unique(&duplicated).is_err());
        assert!(nested(&truth(0), &truth(2)).is_ok());
        assert!(nested(&truth(2), &truth(3)).is_ok());
        assert!(nested(&truth(3), &truth(2)).is_err());
    }

    #[test]
    fn tsv_parsing_maps_names_and_rejects_junk() {
        let text = "#guide\tcontig\tpos\tstrand\tmismatches\nb\tchr2\t7\t-\t1\na\tchr1\t3\t+\t0\n";
        let hits = parse_tsv(text, &["a", "b"], &["chr1", "chr2"]).unwrap();
        assert_eq!(hits[0], Hit { contig: 1, pos: 7, guide: 1, reverse: true, mm: 1 });
        assert_eq!(hits[1], Hit { contig: 0, pos: 3, guide: 0, reverse: false, mm: 0 });
        assert!(parse_tsv(text, &["a"], &["chr1", "chr2"]).is_err());
        assert!(parse_tsv("a\tchr1\t3\t+\t0\n", &["a"], &["chr1"]).is_err());
        let partial = "#guide\tcontig\tpos\tstrand\tmismatches\n# failed chunk: chr1\n";
        assert!(parse_tsv(partial, &["a"], &["chr1"]).is_err());
    }
}
