//! The static codec registry: name → codec and magic → codec resolution.

use crate::sz_adapter::SzCodec;
use crate::wire;
use crate::zfp_adapter::ZfpCodec;
use crate::{Codec, CodecError, ContainerInfo};
use std::sync::OnceLock;

static SZ: SzCodec = SzCodec::new();
static ZFP: ZfpCodec = ZfpCodec::new();
static REGISTRY: CodecRegistry = CodecRegistry { codecs: &[&SZ, &ZFP] };

/// The process-wide registry holding every built-in backend.
///
/// The built-in set is validated once, on first access: duplicate magics
/// across codecs are a registration error (never resolved
/// first-match-wins), so a misconfigured build fails loudly here rather
/// than silently shadowing a container.
pub fn registry() -> &'static CodecRegistry {
    static VALIDATED: OnceLock<()> = OnceLock::new();
    VALIDATED.get_or_init(|| {
        if let Err(e) = REGISTRY.validate() {
            panic!("built-in codec registry is invalid: {e:?}");
        }
    });
    &REGISTRY
}

/// Resolves codecs by CLI name and compressed containers by magic bytes.
///
/// Registration is static: the backends live in `static` items and the
/// registry is a `const` slice over them, so lookups are allocation-free
/// and `&'static dyn Codec` handles can be stored anywhere. Custom codec
/// sets go through [`CodecRegistry::with_codecs`], which rejects
/// duplicate/overlapping magics with a typed error at registration time.
pub struct CodecRegistry {
    codecs: &'static [&'static dyn Codec],
}

impl CodecRegistry {
    /// Build a registry over `codecs`, rejecting any container magic
    /// claimed by more than one codec (or twice by the same codec) with
    /// [`CodecError::DuplicateMagic`]. Magics are fixed four-byte strings,
    /// so "overlapping" and "duplicate" coincide.
    pub fn with_codecs(
        codecs: &'static [&'static dyn Codec],
    ) -> Result<CodecRegistry, CodecError> {
        let reg = CodecRegistry { codecs };
        reg.validate()?;
        Ok(reg)
    }

    /// Check the invariant [`CodecRegistry::with_codecs`] enforces.
    pub fn validate(&self) -> Result<(), CodecError> {
        let mut seen: Vec<([u8; 4], &'static str)> = Vec::new();
        for &codec in self.codecs {
            for info in codec.containers() {
                if let Some(&(magic, first)) = seen.iter().find(|(m, _)| *m == info.magic) {
                    return Err(CodecError::DuplicateMagic {
                        magic,
                        first,
                        second: codec.name(),
                    });
                }
                if info.magic == wire::WIRE_CONTAINER.magic {
                    return Err(CodecError::DuplicateMagic {
                        magic: info.magic,
                        first: "wire",
                        second: codec.name(),
                    });
                }
                seen.push((info.magic, codec.name()));
            }
        }
        Ok(())
    }

    /// All registered codecs, in registration order.
    pub fn codecs(&self) -> &'static [&'static dyn Codec] {
        self.codecs
    }

    /// Registered codec names, in registration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.codecs.iter().map(|c| c.name()).collect()
    }

    /// Every `(codec, container)` pair the registry knows, in
    /// registration order — the CLI renders its supported-container table
    /// from this.
    pub fn list(&self) -> Vec<(&'static dyn Codec, &'static ContainerInfo)> {
        self.codecs
            .iter()
            .flat_map(|&c| c.containers().iter().map(move |info| (c, info)))
            .collect()
    }

    /// Every magic this registry can resolve: each codec's containers in
    /// registration order, then the `LCW1` wire envelope.
    pub fn known_magics(&self) -> Vec<[u8; 4]> {
        let mut magics: Vec<[u8; 4]> = self.list().iter().map(|(_, i)| i.magic).collect();
        magics.push(wire::WIRE_CONTAINER.magic);
        magics
    }

    /// Look a codec up by its CLI name (ASCII case-insensitive, so the
    /// driver-facing `Compressor::name()` spellings "SZ"/"ZFP" also
    /// resolve).
    ///
    /// # Examples
    ///
    /// ```
    /// use lcpio_codec::registry;
    ///
    /// assert_eq!(registry().by_name("sz").unwrap().name(), "sz");
    /// assert_eq!(registry().by_name("ZFP").unwrap().name(), "zfp");
    /// assert!(registry().by_name("lz4").is_none());
    /// ```
    pub fn by_name(&self, name: &str) -> Option<&'static dyn Codec> {
        self.codecs.iter().copied().find(|c| c.name().eq_ignore_ascii_case(name))
    }

    /// Resolve the codec and container behind a stream's 4-byte magic.
    ///
    /// An `LCW1` stream resolves through its envelope to the codec owning
    /// the *inner* container; the returned [`ContainerInfo`] is then the
    /// wire envelope's ([`wire::WIRE_CONTAINER`]).
    ///
    /// # Examples
    ///
    /// ```
    /// use lcpio_codec::{registry, CodecError};
    ///
    /// let (codec, info) = registry().by_magic(b"ZFL1....").unwrap();
    /// assert_eq!(codec.name(), "zfp");
    /// assert_eq!(info.magic_str(), "ZFL1");
    /// assert_eq!(registry().by_magic(b"NOPE").err(),
    ///            Some(CodecError::UnknownMagic(*b"NOPE")));
    /// ```
    pub fn by_magic(
        &self,
        stream: &[u8],
    ) -> Result<(&'static dyn Codec, &'static ContainerInfo), CodecError> {
        if stream.len() < 4 {
            return Err(CodecError::TooShort);
        }
        let magic: [u8; 4] = stream[..4].try_into().expect("4 bytes");
        if magic == wire::WIRE_CONTAINER.magic {
            let inner = wire::inner_magic(stream)?;
            for (codec, info) in self.list() {
                if info.magic == inner {
                    return Ok((codec, &wire::WIRE_CONTAINER));
                }
            }
            return Err(CodecError::UnknownMagic(inner));
        }
        for (codec, info) in self.list() {
            if info.magic == magic {
                return Ok((codec, info));
            }
        }
        Err(CodecError::UnknownMagic(magic))
    }

    /// One-line description of a stream's container, if recognized.
    pub fn describe(&self, stream: &[u8]) -> Option<&'static str> {
        self.by_magic(stream).ok().map(|(_, info)| info.description)
    }

    /// Decompress a stream into `f32` after sniffing its container. An
    /// `LCW1` envelope resolves to its inner container's codec, which
    /// decodes the envelope's frames in place, so wire and legacy streams
    /// decode identically.
    ///
    /// # Examples
    ///
    /// ```
    /// use lcpio_codec::{registry, BoundSpec};
    ///
    /// let data: Vec<f32> = (0..256).map(|i| (i as f32 * 0.1).cos()).collect();
    /// let enc = registry().by_name("zfp").unwrap()
    ///     .compress(&data, &[256], BoundSpec::Absolute(1e-3)).unwrap();
    /// // No codec name needed on the way back — the magic decides.
    /// let (restored, dims) = registry().decompress_auto(&enc.bytes, 1).unwrap();
    /// assert_eq!(dims, vec![256]);
    /// assert_eq!(restored.len(), data.len());
    /// ```
    pub fn decompress_auto(
        &self,
        stream: &[u8],
        threads: usize,
    ) -> Result<(Vec<f32>, Vec<usize>), CodecError> {
        let (codec, _) = self.by_magic(stream)?;
        codec.decompress(stream, threads)
    }

    /// Decompress a stream into `f64` after sniffing its container.
    pub fn decompress_auto_f64(
        &self,
        stream: &[u8],
        threads: usize,
    ) -> Result<(Vec<f64>, Vec<usize>), CodecError> {
        let (codec, _) = self.by_magic(stream)?;
        codec.decompress_f64(stream, threads)
    }
}

/// Render the registry's containers as a Markdown table (the README's
/// "Supported containers" section is generated from this and pinned by a
/// test). The last column shows how each legacy container maps onto the
/// LCW1 wire envelope.
pub fn render_container_table() -> String {
    let mut out = String::from(
        "| Magic | Codec | Container | LCW1 mapping |\n|-------|-------|-----------|--------------|\n",
    );
    out.push_str(&format!(
        "| `LCW1` | any | {} | — |\n",
        wire::WIRE_CONTAINER.description
    ));
    for (codec, info) in registry().list() {
        out.push_str(&format!(
            "| `{}` | {} | {} | container id `{}`, {} |\n",
            info.magic_str(),
            codec.name(),
            info.description,
            info.magic_str(),
            wire::frame_shape(info.magic),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BoundSpec;

    #[test]
    fn names_and_lookup() {
        assert_eq!(registry().names(), vec!["sz", "zfp"]);
        assert_eq!(registry().by_name("sz").expect("sz").name(), "sz");
        assert_eq!(registry().by_name("ZFP").expect("zfp case-insensitive").name(), "zfp");
        assert!(registry().by_name("lz4").is_none());
    }

    #[test]
    fn list_covers_all_five_containers() {
        let magics: Vec<&str> = registry().list().iter().map(|(_, i)| i.magic_str()).collect();
        assert_eq!(magics, vec!["SZL1", "SZLP", "SZPR", "ZFL1", "ZFLP"]);
    }

    #[test]
    fn known_magics_include_wire() {
        let magics = registry().known_magics();
        assert_eq!(
            magics,
            vec![*b"SZL1", *b"SZLP", *b"SZPR", *b"ZFL1", *b"ZFLP", *b"LCW1"]
        );
    }

    #[test]
    fn magic_resolution() {
        let (codec, info) = registry().by_magic(b"SZLP....").expect("sz chunked");
        assert_eq!(codec.name(), "sz");
        assert_eq!(info.description, "SZ chunked (parallel) stream");
        assert_eq!(registry().by_magic(b"XY").err(), Some(CodecError::TooShort));
        assert_eq!(
            registry().by_magic(b"NOPE").err(),
            Some(CodecError::UnknownMagic(*b"NOPE"))
        );
    }

    #[test]
    fn unknown_magic_display_lists_known_magics() {
        let msg = CodecError::UnknownMagic(*b"NOPE").to_string();
        for magic in ["SZL1", "SZLP", "SZPR", "ZFL1", "ZFLP", "LCW1"] {
            assert!(msg.contains(magic), "message missing {magic}: {msg}");
        }
    }

    #[test]
    fn wire_stream_resolves_to_inner_codec() {
        let data: Vec<f32> = (0..512).map(|i| (i as f32 * 0.05).sin()).collect();
        let enc = registry()
            .by_name("zfp")
            .unwrap()
            .compress(&data, &[512], BoundSpec::Absolute(1e-3))
            .unwrap();
        let wrapped = wire::wrap(&enc.bytes).unwrap();
        let (codec, info) = registry().by_magic(&wrapped).unwrap();
        assert_eq!(codec.name(), "zfp");
        assert_eq!(info.magic, *b"LCW1");
        // Wire and legacy decode identically through decompress_auto.
        let (a, da) = registry().decompress_auto(&enc.bytes, 1).unwrap();
        let (b, db) = registry().decompress_auto(&wrapped, 1).unwrap();
        assert_eq!(da, db);
        assert_eq!(a, b);
    }

    /// A fake codec claiming SZ's serial magic, to exercise duplicate
    /// rejection.
    struct Clashing;
    impl Codec for Clashing {
        fn name(&self) -> &'static str {
            "clash"
        }
        fn containers(&self) -> &'static [ContainerInfo] {
            static C: [ContainerInfo; 1] =
                [ContainerInfo { magic: *b"SZL1", description: "imposter" }];
            &C
        }
        fn compress(
            &self,
            _: &[f32],
            _: &[usize],
            _: BoundSpec,
        ) -> Result<crate::Encoded, CodecError> {
            unimplemented!()
        }
        fn compress_chunked(
            &self,
            _: &[f32],
            _: &[usize],
            _: BoundSpec,
            _: usize,
        ) -> Result<crate::Encoded, CodecError> {
            unimplemented!()
        }
        fn compress_f64(
            &self,
            _: &[f64],
            _: &[usize],
            _: BoundSpec,
        ) -> Result<crate::Encoded, CodecError> {
            unimplemented!()
        }
        fn decompress(&self, _: &[u8], _: usize) -> Result<(Vec<f32>, Vec<usize>), CodecError> {
            unimplemented!()
        }
        fn decompress_f64(
            &self,
            _: &[u8],
            _: usize,
        ) -> Result<(Vec<f64>, Vec<usize>), CodecError> {
            unimplemented!()
        }
    }

    /// A fake codec claiming the wire envelope's magic.
    struct WireSquatter;
    impl Codec for WireSquatter {
        fn name(&self) -> &'static str {
            "squatter"
        }
        fn containers(&self) -> &'static [ContainerInfo] {
            static C: [ContainerInfo; 1] =
                [ContainerInfo { magic: *b"LCW1", description: "imposter" }];
            &C
        }
        fn compress(
            &self,
            _: &[f32],
            _: &[usize],
            _: BoundSpec,
        ) -> Result<crate::Encoded, CodecError> {
            unimplemented!()
        }
        fn compress_chunked(
            &self,
            _: &[f32],
            _: &[usize],
            _: BoundSpec,
            _: usize,
        ) -> Result<crate::Encoded, CodecError> {
            unimplemented!()
        }
        fn compress_f64(
            &self,
            _: &[f64],
            _: &[usize],
            _: BoundSpec,
        ) -> Result<crate::Encoded, CodecError> {
            unimplemented!()
        }
        fn decompress(&self, _: &[u8], _: usize) -> Result<(Vec<f32>, Vec<usize>), CodecError> {
            unimplemented!()
        }
        fn decompress_f64(
            &self,
            _: &[u8],
            _: usize,
        ) -> Result<(Vec<f64>, Vec<usize>), CodecError> {
            unimplemented!()
        }
    }

    #[test]
    fn duplicate_magic_rejected_at_registration() {
        static CLASH: Clashing = Clashing;
        static CODECS: [&'static dyn Codec; 3] = [&SZ, &ZFP, &CLASH];
        let err = CodecRegistry::with_codecs(&CODECS).err().expect("must reject");
        assert_eq!(
            err,
            CodecError::DuplicateMagic { magic: *b"SZL1", first: "sz", second: "clash" }
        );
        assert!(err.to_string().contains("SZL1"));

        static SQUAT: WireSquatter = WireSquatter;
        static CODECS2: [&'static dyn Codec; 2] = [&SZ, &SQUAT];
        let err = CodecRegistry::with_codecs(&CODECS2).err().expect("must reject");
        assert_eq!(
            err,
            CodecError::DuplicateMagic { magic: *b"LCW1", first: "wire", second: "squatter" }
        );

        // The built-in set is clean.
        registry().validate().expect("built-in registry validates");
        static OK: [&'static dyn Codec; 2] = [&SZ, &ZFP];
        assert!(CodecRegistry::with_codecs(&OK).is_ok());
    }

    #[test]
    fn table_lists_every_magic() {
        let table = render_container_table();
        for magic in ["LCW1", "SZL1", "SZLP", "SZPR", "ZFL1", "ZFLP"] {
            assert!(table.contains(magic), "table missing {magic}:\n{table}");
        }
    }
}
