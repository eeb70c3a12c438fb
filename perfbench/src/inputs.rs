//! Seeded workload inputs: a repeat-rich genome, guides drawn from it, and
//! off-target sites planted at 1–4 mismatches.
//!
//! Everything here is the benchmark's own code, so the output checks know
//! the truth independently of the program under test. One seed names one
//! set of inputs; a set is generated once and cached under
//! `.bench_work/inputs/<kind>-<seed>/`, outside every timed part.

use crate::check::{self, Guide, Hit};
use std::fs;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

/// splitmix64: small, seedable and the same on every platform, so a seed
/// names the same inputs wherever the benchmark runs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5851_F42D_4C95_7F2D)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Which genome and guide set a workload screens.
#[derive(Clone, Copy)]
pub struct Kind {
    pub name: &'static str,
    /// Contig lengths. The short ones put sites at contig ends and a
    /// contig exactly one site long into every run.
    pub contigs: &'static [usize],
    pub guides: usize,
    /// Guide ids are `<prefix><index>`.
    pub prefix: &'static str,
}

/// About 20 Mbp and a few hundred guides: the paper's library screen.
pub const LIBRARY: Kind = Kind {
    name: "library",
    contigs: &[7_000_000, 5_500_000, 4_000_000, 2_500_000, 1_000_000, 5_000, 23],
    guides: 240,
    prefix: "lib",
};

/// About 10 Mbp and the pool the daemon's requests draw from.
pub const SERVE: Kind = Kind {
    name: "serve",
    contigs: &[4_000_000, 3_000_000, 2_000_000, 1_000_000, 5_000, 23],
    guides: 64,
    prefix: "srv",
};

const SITE_LEN: usize = 23;
const SPACER_LEN: usize = 20;
const PAM: &[u8] = b"NGG";
const GC: f64 = 0.41;

pub struct Contig {
    pub name: String,
    /// Uppercase `ACGT`.
    pub seq: Vec<u8>,
}

/// One workload's inputs, in memory and as the files the program reads.
pub struct Inputs {
    pub contigs: Vec<Contig>,
    pub guides: Vec<Guide>,
    /// Every guide's source site (0 mismatches) and every planted site,
    /// with mismatches recounted on the final sequence. `Hit::guide`
    /// indexes `guides`.
    pub planted: Vec<Hit>,
    pub fasta: PathBuf,
    pub guides_file: PathBuf,
}

impl Inputs {
    pub fn total_len(&self) -> usize {
        self.contigs.iter().map(|c| c.seq.len()).sum()
    }

    pub fn contig_names(&self) -> Vec<&str> {
        self.contigs.iter().map(|c| c.name.as_str()).collect()
    }
}

/// How many input sets stay cached; older ones are removed.
const CACHE_KEEP: usize = 8;

/// The inputs of `kind` for `seed`: loaded from the cache, or generated
/// and cached.
pub fn load_or_generate(cache_root: &Path, kind: Kind, seed: u64) -> Result<Inputs, String> {
    let dir = cache_root.join(format!("{}-{seed}", kind.name));
    if !dir.join("done").exists() {
        let tmp = cache_root.join(format!("{}-{seed}.tmp{}", kind.name, std::process::id()));
        let _ = fs::remove_dir_all(&tmp);
        fs::create_dir_all(&tmp).map_err(|e| format!("create {}: {e}", tmp.display()))?;
        let (contigs, guides, planted) = generate(kind, seed);
        write_inputs(&tmp, &contigs, &guides, &planted)
            .map_err(|e| format!("write inputs to {}: {e}", tmp.display()))?;
        if fs::rename(&tmp, &dir).is_err() {
            // Another run cached the same set first; keep that one.
            let _ = fs::remove_dir_all(&tmp);
        }
        evict(cache_root);
    }
    read_inputs(&dir).map_err(|e| format!("read cached inputs {}: {e}", dir.display()))
}

fn evict(cache_root: &Path) {
    let Ok(entries) = fs::read_dir(cache_root) else { return };
    let mut done: Vec<(std::time::SystemTime, PathBuf)> = entries
        .filter_map(Result::ok)
        .filter_map(|e| {
            let modified = fs::metadata(e.path().join("done")).ok()?.modified().ok()?;
            Some((modified, e.path()))
        })
        .collect();
    done.sort();
    let excess = done.len().saturating_sub(CACHE_KEEP);
    for (_, path) in done.into_iter().take(excess) {
        let _ = fs::remove_dir_all(path);
    }
}

/// A repeat family: a consensus and how far its copies have diverged.
struct Family {
    consensus: Vec<u8>,
    divergence: f64,
    /// Long families leave mostly 5′-truncated copies.
    truncated: bool,
}

fn random_base(rng: &mut Rng) -> u8 {
    let r = rng.unit();
    if r < GC / 2.0 {
        b'G'
    } else if r < GC {
        b'C'
    } else if r < GC + (1.0 - GC) / 2.0 {
        b'A'
    } else {
        b'T'
    }
}

fn other_base(rng: &mut Rng, base: u8) -> u8 {
    let others: Vec<u8> = b"ACGT".iter().copied().filter(|&b| b != base).collect();
    others[rng.below(3)]
}

/// Interspersed repeat families (short, medium and long) plus
/// microsatellites make up a large share of each contig, so guides have
/// many near-copies and the seed filters see realistic candidate loads.
fn families(rng: &mut Rng) -> Vec<Family> {
    let mut out = Vec::new();
    for (count, lo, hi, truncated) in
        [(12, 280, 320, false), (10, 900, 2_200, false), (8, 4_000, 6_500, true)]
    {
        for _ in 0..count {
            let len = rng.range(lo, hi);
            out.push(Family {
                consensus: (0..len).map(|_| random_base(rng)).collect(),
                divergence: 0.02 + 0.16 * rng.unit(),
                truncated,
            });
        }
    }
    out
}

fn repeat_copy(rng: &mut Rng, family: &Family, out: &mut Vec<u8>) {
    let len = family.consensus.len();
    let start = if family.truncated && rng.unit() < 0.8 { rng.below(len - 200) } else { 0 };
    let divergence = family.divergence * (0.5 + rng.unit());
    let mut copy: Vec<u8> = Vec::with_capacity(len - start);
    for &b in &family.consensus[start..] {
        let r = rng.unit();
        if r < divergence {
            copy.push(other_base(rng, b));
        } else if r < divergence * 1.05 {
            // A small deletion.
        } else if r < divergence * 1.1 {
            copy.push(b);
            copy.push(random_base(rng));
        } else {
            copy.push(b);
        }
    }
    if rng.below(2) == 1 {
        check::reverse_complement_in_place(&mut copy);
    }
    out.extend_from_slice(&copy);
}

fn microsatellite(rng: &mut Rng, out: &mut Vec<u8>) {
    let unit: Vec<u8> = (0..rng.range(1, 6)).map(|_| random_base(rng)).collect();
    let len = rng.range(20, 150);
    for i in 0..len {
        let b = unit[i % unit.len()];
        out.push(if rng.unit() < 0.03 { other_base(rng, b) } else { b });
    }
}

fn contig_seq(rng: &mut Rng, families: &[Family], len: usize) -> Vec<u8> {
    let mut seq = Vec::with_capacity(len + 8_000);
    while seq.len() < len {
        let r = rng.unit();
        if r < 0.45 {
            let n = rng.range(50, 3_000);
            seq.extend((0..n).map(|_| random_base(rng)));
        } else if r < 0.95 {
            // Short families are the most frequent, as SINEs are.
            let f = if rng.unit() < 0.6 { rng.below(12) } else { rng.below(families.len()) };
            repeat_copy(rng, &families[f], &mut seq);
        } else {
            microsatellite(rng, &mut seq);
        }
    }
    seq.truncate(len);
    seq
}

/// Whether `spacer` looks like a designed guide: no homopolymer of five or
/// more and a GC share between 30% and 75%.
fn designable(spacer: &[u8]) -> bool {
    let gc = spacer.iter().filter(|&&b| b == b'G' || b == b'C').count();
    let longest_run = spacer.windows(5).any(|w| w.iter().all(|&b| b == w[0]));
    !longest_run && (6..=15).contains(&gc)
}

/// Occupied site windows per contig, so plants never overlap each other
/// or a guide's source site.
struct Occupied(Vec<Vec<(usize, usize)>>);

impl Occupied {
    fn try_take(&mut self, contig: usize, pos: usize) -> bool {
        let end = pos + SITE_LEN;
        if self.0[contig].iter().any(|&(s, e)| pos < e && s < end) {
            return false;
        }
        self.0[contig].push((pos, end));
        true
    }
}

/// Writes a site for `guide` with mismatches at `mm` spacer positions on
/// `reverse`'s strand at forward position `pos`.
fn plant(rng: &mut Rng, seq: &mut [u8], pos: usize, guide: &Guide, mm: usize, reverse: bool) {
    let mut site: Vec<u8> = guide.spacer.clone();
    let mut positions: Vec<usize> = (0..SPACER_LEN).collect();
    for i in 0..mm {
        let j = i + rng.below(SPACER_LEN - i);
        positions.swap(i, j);
        let p = positions[i];
        site[p] = other_base(rng, site[p]);
    }
    for &code in &guide.pam {
        let accepted: Vec<u8> =
            b"ACGT".iter().copied().filter(|&b| check::pam_accepts(code, b)).collect();
        site.push(accepted[rng.below(accepted.len())]);
    }
    if reverse {
        check::reverse_complement_in_place(&mut site);
    }
    seq[pos..pos + SITE_LEN].copy_from_slice(&site);
}

fn generate(kind: Kind, seed: u64) -> (Vec<Contig>, Vec<Guide>, Vec<Hit>) {
    let mut rng = Rng::new(seed.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ kind.guides as u64);
    let families = families(&mut rng);
    let mut contigs: Vec<Contig> = kind
        .contigs
        .iter()
        .enumerate()
        .map(|(i, &len)| Contig {
            name: format!("chr{}", i + 1),
            seq: contig_seq(&mut rng, &families, len),
        })
        .collect();
    let mut occupied = Occupied(vec![Vec::new(); contigs.len()]);
    // Guides come from the large contigs, read on either strand.
    let large: Vec<usize> =
        (0..contigs.len()).filter(|&c| contigs[c].seq.len() >= 1_000_000).collect();
    let large_total: usize = large.iter().map(|&c| contigs[c].seq.len()).sum();
    let pick_contig = |rng: &mut Rng, contigs: &[Contig]| {
        let mut r = rng.below(large_total);
        for &c in &large {
            if r < contigs[c].seq.len() {
                return c;
            }
            r -= contigs[c].seq.len();
        }
        large[large.len() - 1]
    };
    let mut guides: Vec<Guide> = Vec::new();
    let mut planted: Vec<Hit> = Vec::new();
    while guides.len() < kind.guides {
        let c = pick_contig(&mut rng, &contigs);
        let pos = rng.below(contigs[c].seq.len() - SITE_LEN);
        let reverse = rng.below(2) == 1;
        let mut site = contigs[c].seq[pos..pos + SITE_LEN].to_vec();
        if reverse {
            check::reverse_complement_in_place(&mut site);
        }
        let (spacer, pam) = site.split_at(SPACER_LEN);
        if !pam.iter().zip(PAM).all(|(&b, &code)| check::pam_accepts(code, b))
            || !designable(spacer)
            || guides.iter().any(|g| g.spacer == spacer)
            || !occupied.try_take(c, pos)
        {
            continue;
        }
        let index = guides.len();
        guides.push(Guide {
            id: format!("{}{index:03}", kind.prefix),
            spacer: spacer.to_vec(),
            pam: PAM.to_vec(),
        });
        planted.push(Hit { contig: c, pos: pos as u64, guide: index, reverse, mm: 0 });
    }
    // Sites at both ends of every contig, and one filling the contig that
    // is exactly one site long.
    let mut wanted: Vec<(usize, usize, usize, usize, bool)> = Vec::new();
    for (c, contig) in contigs.iter().enumerate() {
        let len = contig.seq.len();
        let g = (2 * c) % guides.len();
        wanted.push((g, 1 + c % 4, c, 0, c % 2 == 0));
        if len >= 2 * SITE_LEN {
            wanted.push(((g + 1) % guides.len(), 1 + (c + 1) % 4, c, len - SITE_LEN, c % 2 == 1));
        }
    }
    // Then one site at each of 1–4 mismatches for every guide.
    for g in 0..guides.len() {
        for mm in 1..=4 {
            let c = pick_contig(&mut rng, &contigs);
            let pos = rng.below(contigs[c].seq.len() - SITE_LEN);
            wanted.push((g, mm, c, pos, rng.below(2) == 1));
        }
    }
    for (g, mm, c, pos, reverse) in wanted {
        if occupied.try_take(c, pos) {
            plant(&mut rng, &mut contigs[c].seq, pos, &guides[g], mm, reverse);
            planted.push(Hit { contig: c, pos: pos as u64, guide: g, reverse, mm: mm as u8 });
        }
    }
    // Recount on the final sequence: this is the truth the checks use.
    for site in &mut planted {
        let seq = &contigs[site.contig].seq;
        site.mm = check::score(seq, site.pos as usize, &guides[site.guide], site.reverse)
            .expect("a planted site keeps its PAM");
    }
    planted.sort();
    (contigs, guides, planted)
}

fn write_inputs(
    dir: &Path,
    contigs: &[Contig],
    guides: &[Guide],
    planted: &[Hit],
) -> std::io::Result<()> {
    let mut fa = BufWriter::new(fs::File::create(dir.join("genome.fa"))?);
    for contig in contigs {
        writeln!(fa, ">{} generated", contig.name)?;
        for line in contig.seq.chunks(80) {
            fa.write_all(line)?;
            fa.write_all(b"\n")?;
        }
    }
    fa.flush()?;
    fs::write(dir.join("guides.txt"), guide_lines(guides.iter()))?;
    let mut sites = String::from("#guide\tcontig\tpos\tstrand\tmismatches\n");
    for s in planted {
        let strand = if s.reverse { '-' } else { '+' };
        sites.push_str(&format!("{}\t{}\t{}\t{strand}\t{}\n", s.guide, s.contig, s.pos, s.mm));
    }
    fs::write(dir.join("planted.tsv"), sites)?;
    fs::write(dir.join("done"), b"")
}

/// Guide-file lines (`id spacer pam`) for `guides`.
pub fn guide_lines<'a>(guides: impl Iterator<Item = &'a Guide>) -> String {
    let mut out = String::from("# id\tspacer\tpam\n");
    for g in guides {
        out.push_str(&format!(
            "{}\t{}\t{}\n",
            g.id,
            String::from_utf8_lossy(&g.spacer),
            String::from_utf8_lossy(&g.pam)
        ));
    }
    out
}

fn bad(what: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string())
}

fn read_inputs(dir: &Path) -> std::io::Result<Inputs> {
    let mut contigs: Vec<Contig> = Vec::new();
    for line in BufReader::new(fs::File::open(dir.join("genome.fa"))?).split(b'\n') {
        let line = line?;
        if let Some(header) = line.strip_prefix(b">") {
            let name = header.split(|&b| b == b' ').next().unwrap_or_default();
            contigs
                .push(Contig { name: String::from_utf8_lossy(name).into_owned(), seq: Vec::new() });
        } else {
            contigs.last_mut().ok_or_else(|| bad("sequence before header"))?.seq.extend(line);
        }
    }
    let mut guides = Vec::new();
    for line in fs::read_to_string(dir.join("guides.txt"))?.lines() {
        if line.starts_with('#') {
            continue;
        }
        let f: Vec<&str> = line.split('\t').collect();
        if f.len() != 3 {
            return Err(bad("guide line"));
        }
        guides.push(Guide {
            id: f[0].to_string(),
            spacer: f[1].as_bytes().to_vec(),
            pam: f[2].as_bytes().to_vec(),
        });
    }
    let mut planted = Vec::new();
    for line in fs::read_to_string(dir.join("planted.tsv"))?.lines().skip(1) {
        let f: Vec<&str> = line.split('\t').collect();
        let num =
            |i: usize| f.get(i).and_then(|v| v.parse::<u64>().ok()).ok_or_else(|| bad("site"));
        planted.push(Hit {
            guide: num(0)? as usize,
            contig: num(1)? as usize,
            pos: num(2)?,
            reverse: f.get(3) == Some(&"-"),
            mm: num(4)? as u8,
        });
    }
    Ok(Inputs {
        contigs,
        guides,
        planted,
        fasta: dir.join("genome.fa"),
        guides_file: dir.join("guides.txt"),
    })
}
