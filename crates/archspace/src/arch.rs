//! Whole-network architecture IR: stem + block sequence + classifier.

use crate::block::{spatial_out, BlockConfig, ConvOp, OpKind};
use crate::error::ArchError;
use crate::Result;

/// The fixed stem in front of the block sequence: a `k × k` convolution with
/// stride 2 over the RGB input (the paper's backbones all start with a
/// `Conv 7×7` or `Conv 3×3` stem).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StemConfig {
    /// Output channels of the stem convolution.
    pub out_channels: usize,
    /// Stem kernel size.
    pub kernel: usize,
    /// Whether the stem convolution is followed by a stride-2 max-pool
    /// (the ResNet/SqueezeNet-style `conv7×7 + pool` stem). MobileNet-style
    /// stems leave this off.
    pub pool: bool,
}

impl Default for StemConfig {
    fn default() -> Self {
        StemConfig {
            out_channels: 16,
            kernel: 3,
            pool: false,
        }
    }
}

impl StemConfig {
    /// Total spatial reduction applied by the stem (2, or 4 with pooling).
    pub fn reduction(&self) -> usize {
        if self.pool {
            4
        } else {
            2
        }
    }
}

/// A complete candidate architecture.
///
/// An architecture is the stem, an ordered list of blocks (channel-chained:
/// `CH1` of block *i* equals the effective output width of block *i − 1*),
/// global average pooling and a linear classifier.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Architecture {
    name: String,
    stem: StemConfig,
    blocks: Vec<BlockConfig>,
    classes: usize,
    input_channels: usize,
    input_size: usize,
}

impl Architecture {
    /// Starts building an architecture for a `classes`-way classifier.
    pub fn builder(classes: usize) -> ArchitectureBuilder {
        ArchitectureBuilder {
            name: "unnamed".to_string(),
            stem: StemConfig::default(),
            blocks: Vec::new(),
            classes,
            input_channels: 3,
            input_size: 64,
        }
    }

    /// The architecture's name (zoo name or a search-generated identifier).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Replaces the name (used when the search labels discovered networks).
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// The stem configuration.
    pub fn stem(&self) -> StemConfig {
        self.stem
    }

    /// The block sequence.
    pub fn blocks(&self) -> &[BlockConfig] {
        &self.blocks
    }

    /// Mutable access to the block sequence (used by the producer when
    /// grafting searchable tails onto frozen headers).
    pub fn blocks_mut(&mut self) -> &mut Vec<BlockConfig> {
        &mut self.blocks
    }

    /// Number of output classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Input image side length assumed for FLOP/latency accounting.
    pub fn input_size(&self) -> usize {
        self.input_size
    }

    /// Number of active (non-skipped) blocks.
    pub fn depth(&self) -> usize {
        self.blocks.iter().filter(|b| !b.skipped).count()
    }

    /// Validates the channel chaining and per-block parameters.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::ChannelMismatch`] or [`ArchError::InvalidBlock`]
    /// pointing at the first offending block.
    pub fn validate(&self) -> Result<()> {
        if self.classes == 0 {
            return Err(ArchError::InvalidArchitecture(
                "classifier needs at least one class".into(),
            ));
        }
        if self.stem.out_channels == 0 {
            return Err(ArchError::InvalidArchitecture(
                "stem must produce at least one channel".into(),
            ));
        }
        let mut current = self.stem.out_channels;
        for (idx, block) in self.blocks.iter().enumerate() {
            block.validate().map_err(|reason| ArchError::InvalidBlock {
                block_index: idx,
                reason,
            })?;
            if block.skipped {
                continue;
            }
            if block.ch_in != current {
                return Err(ArchError::ChannelMismatch {
                    block_index: idx,
                    expected: current,
                    actual: block.ch_in,
                });
            }
            current = block.output_channels();
        }
        Ok(())
    }

    /// The channel width feeding the classifier.
    pub fn final_channels(&self) -> usize {
        self.blocks
            .iter()
            .rfind(|b| !b.skipped)
            .map(|b| b.output_channels())
            .unwrap_or(self.stem.out_channels)
    }

    /// Every primitive operation of the network at its nominal input size,
    /// in execution order. This is what the hardware latency model consumes.
    pub fn ops(&self) -> Vec<ConvOp> {
        let mut ops = Vec::new();
        // stem conv (stride 2), optionally followed by a stride-2 pool
        let conv_h = spatial_out(self.input_size, 2);
        ops.push(ConvOp {
            kind: OpKind::Standard,
            c_in: self.input_channels,
            c_out: self.stem.out_channels,
            kernel: self.stem.kernel,
            stride: 2,
            out_h: conv_h,
            out_w: conv_h,
        });
        let mut h = spatial_out(self.input_size, self.stem.reduction());
        let mut w = h;
        for block in &self.blocks {
            ops.extend(block.ops(h, w));
            if !block.skipped {
                h = spatial_out(h, block.stride());
                w = spatial_out(w, block.stride());
            }
        }
        // classifier
        ops.push(ConvOp {
            kind: OpKind::Dense,
            c_in: self.final_channels(),
            c_out: self.classes,
            kernel: 1,
            stride: 1,
            out_h: 1,
            out_w: 1,
        });
        ops
    }

    /// Total number of parameters (stem + blocks + norms + classifier).
    pub fn param_count(&self) -> u64 {
        let stem_params =
            (self.input_channels * self.stem.out_channels * self.stem.kernel * self.stem.kernel
                + self.stem.out_channels) as u64
                + 2 * self.stem.out_channels as u64;
        let block_params: u64 = self.blocks.iter().map(|b| b.param_count()).sum();
        let classifier_params = (self.final_channels() * self.classes + self.classes) as u64;
        stem_params + block_params + classifier_params
    }

    /// Total FLOPs at the nominal input size.
    pub fn flops(&self) -> u64 {
        self.ops().iter().map(|op| op.flops()).sum()
    }

    /// Model storage in megabytes assuming 32-bit weights.
    pub fn storage_mb(&self) -> f64 {
        self.param_count() as f64 * 4.0 / (1024.0 * 1024.0)
    }

    /// Model size in millions of parameters (the unit of the paper's plots).
    pub fn param_millions(&self) -> f64 {
        self.param_count() as f64 / 1.0e6
    }
}

/// Builder for [`Architecture`] values.
#[derive(Debug, Clone)]
pub struct ArchitectureBuilder {
    name: String,
    stem: StemConfig,
    blocks: Vec<BlockConfig>,
    classes: usize,
    input_channels: usize,
    input_size: usize,
}

impl ArchitectureBuilder {
    /// Sets the architecture name.
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Configures the stem convolution.
    pub fn stem(mut self, out_channels: usize, kernel: usize) -> Self {
        self.stem = StemConfig {
            out_channels,
            kernel,
            pool: self.stem.pool,
        };
        self
    }

    /// Adds a stride-2 max-pool after the stem convolution (ResNet-style).
    pub fn stem_pooled(mut self) -> Self {
        self.stem.pool = true;
        self
    }

    /// Sets the nominal input resolution (square) used for cost accounting.
    pub fn input_size(mut self, size: usize) -> Self {
        self.input_size = size;
        self
    }

    /// Sets the number of input channels (3 for RGB).
    pub fn input_channels(mut self, channels: usize) -> Self {
        self.input_channels = channels;
        self
    }

    /// Appends one block.
    pub fn block(mut self, block: BlockConfig) -> Self {
        self.blocks.push(block);
        self
    }

    /// Appends several blocks.
    pub fn blocks<I: IntoIterator<Item = BlockConfig>>(mut self, blocks: I) -> Self {
        self.blocks.extend(blocks);
        self
    }

    /// Finalises and validates the architecture.
    ///
    /// # Errors
    ///
    /// Returns the first validation error (see [`Architecture::validate`]).
    pub fn build(self) -> Result<Architecture> {
        let arch = Architecture {
            name: self.name,
            stem: self.stem,
            blocks: self.blocks,
            classes: self.classes,
            input_channels: self.input_channels,
            input_size: self.input_size,
        };
        arch.validate()?;
        Ok(arch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockKind;
    use proptest::prelude::*;

    fn sample_arch() -> Architecture {
        Architecture::builder(5)
            .name("sample")
            .stem(16, 3)
            .input_size(64)
            .block(BlockConfig::new(BlockKind::Mb, 16, 64, 24, 3))
            .block(BlockConfig::new(BlockKind::Db, 24, 96, 24, 3))
            .block(BlockConfig::new(BlockKind::Rb, 24, 48, 48, 3))
            .block(BlockConfig::new(BlockKind::Cb, 48, 48, 64, 5))
            .build()
            .unwrap()
    }

    #[test]
    fn builder_produces_valid_architecture() {
        let arch = sample_arch();
        assert_eq!(arch.name(), "sample");
        assert_eq!(arch.depth(), 4);
        assert_eq!(arch.classes(), 5);
        assert_eq!(arch.final_channels(), 64);
        assert!(arch.param_count() > 0);
        assert!(arch.flops() > 0);
        assert!(arch.storage_mb() > 0.0);
    }

    #[test]
    fn channel_mismatch_is_rejected() {
        let result = Architecture::builder(5)
            .stem(16, 3)
            .block(BlockConfig::new(BlockKind::Mb, 32, 64, 24, 3))
            .build();
        assert!(matches!(result, Err(ArchError::ChannelMismatch { .. })));
    }

    #[test]
    fn invalid_block_is_rejected_with_index() {
        let result = Architecture::builder(5)
            .stem(16, 3)
            .block(BlockConfig::new(BlockKind::Mb, 16, 64, 24, 3))
            .block(BlockConfig::new(BlockKind::Cb, 24, 24, 24, 4))
            .build();
        match result {
            Err(ArchError::InvalidBlock { block_index, .. }) => assert_eq!(block_index, 1),
            other => panic!("expected InvalidBlock, got {other:?}"),
        }
    }

    #[test]
    fn zero_classes_is_rejected() {
        assert!(Architecture::builder(0).stem(8, 3).build().is_err());
    }

    #[test]
    fn skipped_blocks_do_not_break_chaining() {
        let arch = Architecture::builder(5)
            .stem(16, 3)
            .block(BlockConfig::new(BlockKind::Mb, 16, 64, 24, 3))
            .block(BlockConfig::new(BlockKind::Rb, 99, 99, 99, 3).skipped())
            .block(BlockConfig::new(BlockKind::Db, 24, 96, 24, 3))
            .build()
            .unwrap();
        assert_eq!(arch.depth(), 2);
        assert_eq!(arch.final_channels(), 24);
    }

    #[test]
    fn ops_track_spatial_resolution() {
        let arch = sample_arch();
        let ops = arch.ops();
        // stem halves 64 -> 32; MB halves 32 -> 16; the rest keep 16
        assert_eq!(ops[0].out_h, 32);
        let last_conv = &ops[ops.len() - 2];
        assert_eq!(last_conv.out_h, 16);
        // final op is the classifier
        assert_eq!(ops.last().unwrap().kind, OpKind::Dense);
        assert_eq!(ops.last().unwrap().c_out, 5);
    }

    #[test]
    fn param_count_is_consistent_with_ops_plus_norms() {
        let arch = sample_arch();
        let op_params: u64 = arch.ops().iter().map(|o| o.params()).sum();
        // param_count additionally includes the channel-norm affine params,
        // so it must be strictly larger than the bare conv/dense params.
        assert!(arch.param_count() > op_params);
    }

    #[test]
    fn storage_follows_four_bytes_per_param() {
        let arch = sample_arch();
        let expected = arch.param_count() as f64 * 4.0 / (1024.0 * 1024.0);
        assert!((arch.storage_mb() - expected).abs() < 1e-9);
        assert!((arch.param_millions() - arch.param_count() as f64 / 1e6).abs() < 1e-9);
    }

    #[test]
    fn set_name_updates_name() {
        let mut arch = sample_arch();
        arch.set_name("fahana-small");
        assert_eq!(arch.name(), "fahana-small");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn prop_wider_final_block_never_reduces_params(extra in 1usize..64) {
            let base = sample_arch();
            let wider = Architecture::builder(5)
                .stem(16, 3)
                .input_size(64)
                .block(BlockConfig::new(BlockKind::Mb, 16, 64, 24, 3))
                .block(BlockConfig::new(BlockKind::Db, 24, 96, 24, 3))
                .block(BlockConfig::new(BlockKind::Rb, 24, 48, 48, 3))
                .block(BlockConfig::new(BlockKind::Cb, 48, 48, 64 + extra, 5))
                .build()
                .unwrap();
            prop_assert!(wider.param_count() > base.param_count());
        }

        #[test]
        fn prop_larger_input_never_reduces_flops(size in prop::sample::select(vec![32usize, 64, 96, 128])) {
            let small = Architecture::builder(5)
                .stem(16, 3)
                .input_size(size)
                .block(BlockConfig::new(BlockKind::Mb, 16, 64, 24, 3))
                .build()
                .unwrap();
            let large = Architecture::builder(5)
                .stem(16, 3)
                .input_size(size * 2)
                .block(BlockConfig::new(BlockKind::Mb, 16, 64, 24, 3))
                .build()
                .unwrap();
            prop_assert!(large.flops() >= small.flops());
        }
    }
}
