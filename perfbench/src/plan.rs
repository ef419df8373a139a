//! The serve workloads' request plans, made from the seed alone.
//!
//! 80 % of requests are `GET /v1/stale/{page}?window={7|30}`, 20 % are
//! `POST /v1/score` with one to three triples at granularity 7. Pages are
//! drawn uniformly (`serve-uniform`) or by Zipf(s = 1) popularity over a
//! seeded permutation of the pages (`serve-zipf`).

use wikistale_core::predictor::EvalData;
use wikistale_obs::json;
use wikistale_wikicube::{DateRange, PageId};

/// splitmix64: small, seedable, and every seed (zero too) is fine.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// How page popularity is distributed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Popularity {
    Uniform,
    Zipf,
}

/// Draws page indices in `0..num_pages`.
pub struct PagePicker {
    num_pages: usize,
    /// Zipf only: page of each popularity rank, and the cumulative
    /// weight of ranks `0..=r`.
    ranked: Option<(Vec<u32>, Vec<f64>)>,
}

impl PagePicker {
    pub fn new(popularity: Popularity, num_pages: usize, rng: &mut Rng) -> PagePicker {
        assert!(num_pages > 0, "no pages to draw from");
        let ranked = (popularity == Popularity::Zipf).then(|| {
            let mut perm: Vec<u32> = (0..num_pages as u32).collect();
            for i in (1..perm.len()).rev() {
                perm.swap(i, rng.below(i as u64 + 1) as usize);
            }
            let mut total = 0.0;
            let cdf = (1..=num_pages)
                .map(|rank| {
                    total += 1.0 / rank as f64;
                    total
                })
                .collect();
            (perm, cdf)
        });
        PagePicker { num_pages, ranked }
    }

    pub fn pick(&self, rng: &mut Rng) -> usize {
        match &self.ranked {
            None => rng.below(self.num_pages as u64) as usize,
            Some((perm, cdf)) => {
                let target = rng.unit() * cdf[cdf.len() - 1];
                let rank = cdf.partition_point(|&c| c <= target).min(cdf.len() - 1);
                perm[rank] as usize
            }
        }
    }
}

/// What the plan draws from: page titles, fields by name, and how many
/// 7-day windows the evaluation range holds.
pub struct Catalog {
    pub titles: Vec<String>,
    pub fields: Vec<(String, String)>,
    pub num_windows: u64,
}

impl Catalog {
    pub fn new(data: EvalData<'_>, eval_range: DateRange) -> Catalog {
        let cube = data.cube;
        let titles = (0..cube.num_pages() as u32)
            .map(|p| cube.page_title(PageId(p)).to_string())
            .collect();
        let fields = data
            .index
            .fields()
            .iter()
            .map(|f| {
                (
                    cube.entity_name(f.entity).to_string(),
                    cube.property_name(f.property).to_string(),
                )
            })
            .collect();
        Catalog {
            titles,
            fields,
            num_windows: u64::from(eval_range.len_days() / 7).max(1),
        }
    }
}

/// One planned request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Planned {
    /// The bytes sent on the wire.
    pub raw: Vec<u8>,
    /// `(page, window)` for a stale query; `None` for a score request.
    pub stale: Option<(usize, u32)>,
}

impl AsRef<[u8]> for Planned {
    fn as_ref(&self) -> &[u8] {
        &self.raw
    }
}

/// Percent-encode a path segment (everything but unreserved bytes).
fn encode_segment(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for b in text.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

/// An endless, seeded stream of requests.
pub struct Planner<'a> {
    catalog: &'a Catalog,
    picker: PagePicker,
    rng: Rng,
}

impl<'a> Planner<'a> {
    pub fn new(catalog: &'a Catalog, popularity: Popularity, seed: u64) -> Planner<'a> {
        let mut rng = Rng::new(seed, 0x5e47e);
        let picker = PagePicker::new(popularity, catalog.titles.len(), &mut rng);
        Planner {
            catalog,
            picker,
            rng,
        }
    }

    pub fn next_request(&mut self) -> Planned {
        let rng = &mut self.rng;
        if rng.below(10) < 8 {
            let page = self.picker.pick(rng);
            let window = if rng.below(2) == 0 { 7 } else { 30 };
            let raw = format!(
                "GET /v1/stale/{}?window={window} HTTP/1.1\r\nHost: perfbench\r\n\
                 Connection: close\r\n\r\n",
                encode_segment(&self.catalog.titles[page])
            );
            return Planned {
                raw: raw.into_bytes(),
                stale: Some((page, window)),
            };
        }
        let fields = &self.catalog.fields;
        let mut triples = Vec::new();
        for _ in 0..1 + rng.below(3) {
            let (entity, property) = &fields[rng.below(fields.len() as u64) as usize];
            triples.push(format!(
                "{{\"entity\": {}, \"property\": {}, \"window\": {}}}",
                json::escape(entity),
                json::escape(property),
                rng.below(self.catalog.num_windows)
            ));
        }
        let body = format!(
            "{{\"granularity\": 7, \"triples\": [{}]}}",
            triples.join(", ")
        );
        let raw = format!(
            "POST /v1/score HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        );
        Planned {
            raw: raw.into_bytes(),
            stale: None,
        }
    }

    pub fn take(&mut self, n: usize) -> Vec<Planned> {
        (0..n).map(|_| self.next_request()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use wikistale_serve::ResponseCache;

    /// The medium preset's page count.
    const MEDIUM_PAGES: usize = 55_000;
    /// The server's default cache size.
    const CACHE_ENTRIES: usize = 4_096;

    fn catalog(num_pages: usize) -> Catalog {
        Catalog {
            titles: (0..num_pages).map(|p| format!("Page {p}")).collect(),
            fields: vec![("synth-0-0".into(), "detail_0".into())],
            num_windows: 52,
        }
    }

    fn stale_keys(popularity: Popularity, seed: u64, n: usize) -> Vec<(usize, u32)> {
        let catalog = catalog(MEDIUM_PAGES);
        let mut planner = Planner::new(&catalog, popularity, seed);
        (0..n)
            .filter_map(|_| planner.next_request().stale)
            .collect()
    }

    #[test]
    fn the_same_seed_gives_the_same_plan() {
        let catalog = catalog(1_000);
        let plan = |seed| Planner::new(&catalog, Popularity::Zipf, seed).take(500);
        assert_eq!(plan(7), plan(7));
        assert_ne!(plan(7), plan(8));
        let mix = plan(7);
        let stale = mix.iter().filter(|p| p.stale.is_some()).count();
        assert!((350..450).contains(&stale), "80 % stale, got {stale}/500");
    }

    #[test]
    fn uniform_stale_keys_dwarf_the_cache() {
        let distinct: HashSet<(usize, u32)> = stale_keys(Popularity::Uniform, 1, 250_000)
            .into_iter()
            .collect();
        assert!(
            distinct.len() >= 10 * CACHE_ENTRIES,
            "{} distinct keys",
            distinct.len()
        );
    }

    /// Replays stale keys through the server's own cache type and
    /// returns the hit rate over the second half.
    fn hit_rate(popularity: Popularity) -> f64 {
        let cache = ResponseCache::new(CACHE_ENTRIES);
        let keys = stale_keys(popularity, 3, 20_000);
        let mut hits = 0;
        let half = keys.len() / 2;
        for (i, (page, window)) in keys.iter().enumerate() {
            let key = format!("{page}|{window}");
            if cache.get(&key).is_some() {
                hits += usize::from(i >= half);
            } else {
                cache.insert(&key, std::sync::Arc::new(Vec::new()));
            }
        }
        hits as f64 / (keys.len() - half) as f64
    }

    #[test]
    fn zipf_traffic_mostly_hits_the_cache_and_uniform_mostly_misses() {
        let zipf = hit_rate(Popularity::Zipf);
        let uniform = hit_rate(Popularity::Uniform);
        assert!(zipf >= 0.5, "zipf hit rate {zipf}");
        assert!(uniform <= 0.1, "uniform hit rate {uniform}");
    }

    #[test]
    fn zipf_rank_one_is_the_most_popular_page() {
        let mut rng = Rng::new(5, 0);
        let picker = PagePicker::new(Popularity::Zipf, 1_000, &mut rng);
        let mut counts = vec![0usize; 1_000];
        for _ in 0..50_000 {
            counts[picker.pick(&mut rng)] += 1;
        }
        let top = picker.ranked.as_ref().unwrap().0[0] as usize;
        assert_eq!(counts.iter().max(), Some(&counts[top]));
    }
}
