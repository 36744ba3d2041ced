//! Search-space blocks (MB / DB / RB / CB) and their cost accounting.

/// The four basic block types of the FaHaNa search space (paper Figure 4 ➁).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlockKind {
    /// MobileNetV2 inverted bottleneck with stride 2 (downsampling).
    Mb,
    /// MobileNetV2 inverted bottleneck with stride 1.
    Db,
    /// ResNet basic block (two spatial convolutions + skip).
    Rb,
    /// Conventional convolution block.
    Cb,
}

impl BlockKind {
    /// All block kinds, in controller action order.
    pub const ALL: [BlockKind; 4] = [BlockKind::Mb, BlockKind::Db, BlockKind::Rb, BlockKind::Cb];

    /// Short label used in renders and reports.
    pub fn label(&self) -> &'static str {
        match self {
            BlockKind::Mb => "MB",
            BlockKind::Db => "DB",
            BlockKind::Rb => "RB",
            BlockKind::Cb => "CB",
        }
    }

    /// The spatial stride this block applies.
    pub fn stride(&self) -> usize {
        match self {
            BlockKind::Mb => 2,
            _ => 1,
        }
    }
}

impl std::fmt::Display for BlockKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// The primitive operation categories a block decomposes into.
///
/// The hardware latency model treats these differently: depthwise
/// convolutions have far lower arithmetic efficiency on ARM CPUs running
/// vanilla PyTorch, which is exactly why MobileNetV2 measures *slower* than
/// ResNet-50 on the Raspberry Pi in the paper's Table 3 despite having far
/// fewer FLOPs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Standard k×k convolution.
    Standard,
    /// 1×1 (pointwise) convolution.
    Pointwise,
    /// Depthwise k×k convolution.
    Depthwise,
    /// Fully connected layer.
    Dense,
}

/// One primitive operation with enough geometry to cost it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConvOp {
    /// Operation category.
    pub kind: OpKind,
    /// Input channels.
    pub c_in: usize,
    /// Output channels.
    pub c_out: usize,
    /// Kernel size (1 for pointwise/dense).
    pub kernel: usize,
    /// Spatial stride (1 for dense).
    pub stride: usize,
    /// Output feature-map height (1 for dense).
    pub out_h: usize,
    /// Output feature-map width (1 for dense).
    pub out_w: usize,
}

impl ConvOp {
    /// Multiply–accumulate count ×2 (the usual FLOP convention).
    pub fn flops(&self) -> u64 {
        let spatial = (self.out_h * self.out_w) as u64;
        match self.kind {
            OpKind::Depthwise => {
                2 * spatial * (self.kernel * self.kernel) as u64 * self.c_out as u64
            }
            OpKind::Dense => 2 * (self.c_in * self.c_out) as u64,
            _ => {
                2 * spatial
                    * (self.kernel * self.kernel) as u64
                    * self.c_in as u64
                    * self.c_out as u64
            }
        }
    }

    /// Weight parameter count (bias included).
    pub fn params(&self) -> u64 {
        match self.kind {
            OpKind::Depthwise => (self.c_out * self.kernel * self.kernel + self.c_out) as u64,
            OpKind::Dense => (self.c_in * self.c_out + self.c_out) as u64,
            _ => (self.c_in * self.c_out * self.kernel * self.kernel + self.c_out) as u64,
        }
    }

    /// Approximate memory traffic in elements: weights + output activations.
    pub fn memory_traffic(&self) -> u64 {
        self.params() + (self.c_out * self.out_h * self.out_w) as u64
    }
}

/// Configuration of one block in an architecture.
///
/// `CH1` is inherited from the previous block's `CH3` (the paper notes only
/// `K`, `CH2` and `CH3` are searchable). A block can also be skipped entirely
/// to shorten the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockConfig {
    /// Block type.
    pub kind: BlockKind,
    /// Input channel count (`CH1`).
    pub ch_in: usize,
    /// Intermediate channel count (`CH2`).
    pub ch_mid: usize,
    /// Output channel count (`CH3`).
    pub ch_out: usize,
    /// Kernel size (`K`).
    pub kernel: usize,
    /// Whether the block is skipped (identity), which requires
    /// `ch_in == ch_out` to be meaningful for cost accounting.
    pub skipped: bool,
    /// Forces a stride of 2 regardless of block kind. The search space never
    /// sets this (block stride is implied by the block type, as in the
    /// paper); it exists so the reference zoo can express the stage
    /// downsampling of ResNet/SqueezeNet-style networks faithfully.
    pub downsample: bool,
}

impl BlockConfig {
    /// Creates an active (non-skipped) block.
    pub fn new(kind: BlockKind, ch_in: usize, ch_mid: usize, ch_out: usize, kernel: usize) -> Self {
        BlockConfig {
            kind,
            ch_in,
            ch_mid,
            ch_out,
            kernel,
            skipped: false,
            downsample: false,
        }
    }

    /// Marks the block as skipped (identity pass-through).
    pub fn skipped(mut self) -> Self {
        self.skipped = true;
        self
    }

    /// Forces the block to downsample (stride 2). Used only by the reference
    /// zoo; searchable blocks get their stride from the block kind.
    pub fn downsampled(mut self) -> Self {
        self.downsample = true;
        self
    }

    /// Validates channel and kernel parameters.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason when a dimension is zero or the
    /// kernel is even (even kernels break the "same" padding assumption).
    pub fn validate(&self) -> std::result::Result<(), String> {
        if self.skipped {
            return Ok(());
        }
        if self.ch_in == 0 || self.ch_mid == 0 || self.ch_out == 0 {
            return Err("channel counts must be non-zero".into());
        }
        if self.kernel == 0 || self.kernel.is_multiple_of(2) {
            return Err(format!("kernel {} must be odd and non-zero", self.kernel));
        }
        Ok(())
    }

    /// Spatial stride (1 for skipped blocks).
    pub fn stride(&self) -> usize {
        if self.skipped {
            1
        } else if self.downsample {
            2
        } else {
            self.kind.stride()
        }
    }

    /// Effective output channels (input channels when skipped).
    pub fn output_channels(&self) -> usize {
        if self.skipped {
            self.ch_in
        } else {
            self.ch_out
        }
    }

    /// Whether the block has a residual (skip) connection in the paper's
    /// block diagrams: RB always, DB when input and output widths agree.
    pub fn has_residual(&self) -> bool {
        if self.skipped {
            return false;
        }
        match self.kind {
            BlockKind::Rb => true,
            BlockKind::Db => self.ch_in == self.ch_out,
            _ => false,
        }
    }

    /// The primitive operations of the block at the given input resolution.
    ///
    /// Skipped blocks contribute no operations.
    pub fn ops(&self, in_h: usize, in_w: usize) -> Vec<ConvOp> {
        if self.skipped {
            return Vec::new();
        }
        let stride = self.stride();
        let out_h = spatial_out(in_h, stride);
        let out_w = spatial_out(in_w, stride);
        match self.kind {
            BlockKind::Mb | BlockKind::Db => vec![
                // expand 1×1
                ConvOp {
                    kind: OpKind::Pointwise,
                    c_in: self.ch_in,
                    c_out: self.ch_mid,
                    kernel: 1,
                    stride: 1,
                    out_h: in_h,
                    out_w: in_w,
                },
                // depthwise k×k (carries the stride)
                ConvOp {
                    kind: OpKind::Depthwise,
                    c_in: self.ch_mid,
                    c_out: self.ch_mid,
                    kernel: self.kernel,
                    stride,
                    out_h,
                    out_w,
                },
                // project 1×1
                ConvOp {
                    kind: OpKind::Pointwise,
                    c_in: self.ch_mid,
                    c_out: self.ch_out,
                    kernel: 1,
                    stride: 1,
                    out_h,
                    out_w,
                },
            ],
            BlockKind::Rb => {
                let mut ops = vec![
                    ConvOp {
                        kind: OpKind::Standard,
                        c_in: self.ch_in,
                        c_out: self.ch_mid,
                        kernel: self.kernel,
                        stride,
                        out_h,
                        out_w,
                    },
                    ConvOp {
                        kind: OpKind::Standard,
                        c_in: self.ch_mid,
                        c_out: self.ch_out,
                        kernel: self.kernel,
                        stride: 1,
                        out_h,
                        out_w,
                    },
                ];
                if self.ch_in != self.ch_out {
                    // 1×1 projection on the shortcut
                    ops.push(ConvOp {
                        kind: OpKind::Pointwise,
                        c_in: self.ch_in,
                        c_out: self.ch_out,
                        kernel: 1,
                        stride,
                        out_h,
                        out_w,
                    });
                }
                ops
            }
            BlockKind::Cb => vec![
                ConvOp {
                    kind: OpKind::Standard,
                    c_in: self.ch_in,
                    c_out: self.ch_mid,
                    kernel: self.kernel,
                    stride,
                    out_h,
                    out_w,
                },
                ConvOp {
                    kind: OpKind::Pointwise,
                    c_in: self.ch_mid,
                    c_out: self.ch_out,
                    kernel: 1,
                    stride: 1,
                    out_h,
                    out_w,
                },
            ],
        }
    }

    /// Weight parameters of the block (including per-channel norm affine
    /// parameters, two per normalised channel).
    pub fn param_count(&self) -> u64 {
        if self.skipped {
            return 0;
        }
        let conv_params: u64 = self.ops(8, 8).iter().map(|op| op.params()).sum();
        // every conv op is followed by a channel norm with 2·C parameters
        let norm_params: u64 = self.ops(8, 8).iter().map(|op| 2 * op.c_out as u64).sum();
        conv_params + norm_params
    }

    /// FLOPs of the block at the given input resolution.
    pub fn flops(&self, in_h: usize, in_w: usize) -> u64 {
        self.ops(in_h, in_w).iter().map(|op| op.flops()).sum()
    }
}

impl std::fmt::Display for BlockConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.skipped {
            write!(f, "skip")
        } else {
            write!(
                f,
                "{} {},{},{},{}",
                self.kind, self.ch_in, self.ch_mid, self.ch_out, self.kernel
            )
        }
    }
}

/// Output spatial extent after a stride, assuming "same" padding.
pub fn spatial_out(input: usize, stride: usize) -> usize {
    input.div_ceil(stride.max(1)).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn block_kinds_have_expected_strides() {
        assert_eq!(BlockKind::Mb.stride(), 2);
        assert_eq!(BlockKind::Db.stride(), 1);
        assert_eq!(BlockKind::Rb.stride(), 1);
        assert_eq!(BlockKind::Cb.stride(), 1);
        assert_eq!(BlockKind::Mb.to_string(), "MB");
    }

    #[test]
    fn mb_block_params_match_hand_computation() {
        // MB 16 -> 96 -> 24, k=3
        let block = BlockConfig::new(BlockKind::Mb, 16, 96, 24, 3);
        // expand 1x1: 16*96 + 96, dw 3x3: 96*9 + 96, project 1x1: 96*24 + 24
        let conv = (16 * 96 + 96) + (96 * 9 + 96) + (96 * 24 + 24);
        let norm = 2 * 96 + 2 * 96 + 2 * 24;
        assert_eq!(block.param_count(), (conv + norm) as u64);
    }

    #[test]
    fn rb_block_adds_projection_only_when_widths_differ() {
        let same = BlockConfig::new(BlockKind::Rb, 32, 32, 32, 3);
        let diff = BlockConfig::new(BlockKind::Rb, 32, 32, 64, 3);
        assert_eq!(same.ops(8, 8).len(), 2);
        assert_eq!(diff.ops(8, 8).len(), 3);
        assert!(diff.param_count() > same.param_count());
    }

    #[test]
    fn skipped_block_is_free() {
        let block = BlockConfig::new(BlockKind::Rb, 32, 32, 32, 3).skipped();
        assert_eq!(block.param_count(), 0);
        assert_eq!(block.flops(16, 16), 0);
        assert!(block.ops(16, 16).is_empty());
        assert_eq!(block.output_channels(), 32);
        assert_eq!(block.stride(), 1);
        assert_eq!(block.to_string(), "skip");
    }

    #[test]
    fn validation_rejects_bad_dimensions() {
        assert!(BlockConfig::new(BlockKind::Cb, 0, 8, 8, 3)
            .validate()
            .is_err());
        assert!(BlockConfig::new(BlockKind::Cb, 8, 8, 8, 4)
            .validate()
            .is_err());
        assert!(BlockConfig::new(BlockKind::Cb, 8, 8, 8, 3)
            .validate()
            .is_ok());
        assert!(BlockConfig::new(BlockKind::Cb, 0, 0, 0, 0)
            .skipped()
            .validate()
            .is_ok());
    }

    #[test]
    fn residual_rules_follow_paper_diagrams() {
        assert!(BlockConfig::new(BlockKind::Rb, 16, 16, 32, 3).has_residual());
        assert!(BlockConfig::new(BlockKind::Db, 24, 96, 24, 3).has_residual());
        assert!(!BlockConfig::new(BlockKind::Db, 24, 96, 32, 3).has_residual());
        assert!(!BlockConfig::new(BlockKind::Mb, 24, 96, 24, 3).has_residual());
        assert!(!BlockConfig::new(BlockKind::Cb, 24, 24, 24, 3).has_residual());
    }

    #[test]
    fn mb_stride_halves_feature_map() {
        let block = BlockConfig::new(BlockKind::Mb, 16, 64, 24, 3);
        let ops = block.ops(32, 32);
        assert_eq!(ops[1].out_h, 16);
        assert_eq!(ops[2].out_h, 16);
        // stride-1 DB keeps the resolution
        let db = BlockConfig::new(BlockKind::Db, 16, 64, 24, 3);
        assert_eq!(db.ops(32, 32)[2].out_h, 32);
    }

    #[test]
    fn depthwise_flops_are_much_cheaper_than_standard() {
        let dw = ConvOp {
            kind: OpKind::Depthwise,
            c_in: 64,
            c_out: 64,
            kernel: 3,
            stride: 1,
            out_h: 16,
            out_w: 16,
        };
        let std_op = ConvOp {
            kind: OpKind::Standard,
            c_in: 64,
            c_out: 64,
            kernel: 3,
            stride: 1,
            out_h: 16,
            out_w: 16,
        };
        assert!(std_op.flops() > 10 * dw.flops());
        assert!(std_op.params() > 10 * dw.params());
    }

    #[test]
    fn dense_op_costs() {
        let dense = ConvOp {
            kind: OpKind::Dense,
            c_in: 256,
            c_out: 5,
            kernel: 1,
            stride: 1,
            out_h: 1,
            out_w: 1,
        };
        assert_eq!(dense.params(), 256 * 5 + 5);
        assert_eq!(dense.flops(), 2 * 256 * 5);
    }

    #[test]
    fn downsampled_blocks_apply_stride_two() {
        let block = BlockConfig::new(BlockKind::Rb, 32, 32, 32, 3).downsampled();
        assert_eq!(block.stride(), 2);
        assert_eq!(block.ops(16, 16)[0].out_h, 8);
        // the plain variant keeps the resolution
        assert_eq!(BlockConfig::new(BlockKind::Rb, 32, 32, 32, 3).stride(), 1);
        // skip wins over downsample
        assert_eq!(
            BlockConfig::new(BlockKind::Rb, 32, 32, 32, 3)
                .downsampled()
                .skipped()
                .stride(),
            1
        );
    }

    #[test]
    fn spatial_out_rounds_up() {
        assert_eq!(spatial_out(7, 2), 4);
        assert_eq!(spatial_out(8, 2), 4);
        assert_eq!(spatial_out(5, 1), 5);
        assert_eq!(spatial_out(1, 2), 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn prop_params_grow_with_channels(
            kind_idx in 0usize..4,
            ch in 4usize..64,
            k in prop::sample::select(vec![3usize, 5, 7]),
        ) {
            let kind = BlockKind::ALL[kind_idx];
            let small = BlockConfig::new(kind, ch, ch, ch, k);
            let large = BlockConfig::new(kind, ch, ch * 2, ch * 2, k);
            prop_assert!(large.param_count() > small.param_count());
        }

        #[test]
        fn prop_flops_scale_with_resolution(
            kind_idx in 0usize..4,
            ch in 4usize..32,
        ) {
            let kind = BlockKind::ALL[kind_idx];
            let block = BlockConfig::new(kind, ch, ch, ch, 3);
            prop_assert!(block.flops(16, 16) >= block.flops(8, 8));
        }
    }
}
