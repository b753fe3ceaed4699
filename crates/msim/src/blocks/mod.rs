//! Behavioral models of the link's analog blocks.
//!
//! Each model is a small state machine over [`crate::units`] quantities with
//! explicit fault hooks: the campaign engine resolves a structural fault to
//! an [`crate::effects::AnalogEffect`] and configures the matching hook, and
//! the test tiers then *simulate* the block to decide detection.
//!
//! * [`comparator`] — offset comparators and window comparators
//!   (Figs. 5, 6 and 9 of the paper),
//! * [`charge_pump`] — weak/strong charge pumps with the charge-balancing
//!   arm (Fig. 8),
//! * [`vcdl`] — the fine-loop voltage-controlled delay line,
//! * [`dll`] — the 10-phase DLL reference.

pub mod charge_pump;
pub mod comparator;
pub mod dll;
pub mod vcdl;
