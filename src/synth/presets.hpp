// Preset user archetypes and the standard app population.
//
// The presets stand in for the paper's study subjects: eight diverse
// users (ages 20–30, different professions per §III) for the motivation
// figures, and three "volunteers" for the §VI evaluation. Archetypes
// differ strongly in their hourly intensity shape (driving the low
// cross-user Pearson of Fig. 3) while each is internally regular
// (driving the high cross-day Pearson of Fig. 4).
#pragma once

#include <vector>

#include "synth/profiles.hpp"

namespace netmaster::synth {

/// The user archetypes available to experiments.
enum class Archetype {
  kOfficeWorker,    ///< 9-to-6 usage with lunch and evening peaks
  kStudent,         ///< bimodal daytime plus late-night usage
  kNightOwl,        ///< activity concentrated 21:00–02:00
  kCommuter,        ///< sharp morning/evening commute peaks
  kRetiree,         ///< gentle spread across the day
  kHeavyMessenger,  ///< IM-dominated, high intensity all waking hours
  kWeekendWarrior,  ///< light weekdays, heavy weekends
  kLightUser,       ///< sparse usage throughout
  kMediaStreamer,   ///< long evening media flows, periodic chunk fetches
  kPodcastCommuter, ///< commute listening over bulk episode downloads
};

/// The 23-app population used by all presets (matching the paper's
/// Fig. 5 population size). Usage weights here are generic; archetype
/// builders rescale or zero them so that, as in the paper, only a
/// handful of apps see both usage and network activity for any user.
std::vector<AppProfile> standard_app_population();

/// Builds a user of the given archetype with the standard apps. Throws
/// netmaster::Error for a value outside the enum.
UserProfile make_user(Archetype archetype, UserId id);

/// The 8-user §III study population (one of each archetype).
std::vector<UserProfile> study_population();

/// The 3-volunteer §VI evaluation population (office worker, student,
/// heavy messenger — spanning regular to chatty usage).
std::vector<UserProfile> volunteer_population();

/// A media streamer whose player fetches one chunk per `chunk_period`
/// of playback — the EStreamer burst-shaping knob. The media *bitrate*
/// is fixed: a coarser period means proportionally larger chunks, so
/// the same bytes arrive in fewer, bigger bursts and the radio pays
/// fewer promotion/tail cycles. make_user(kMediaStreamer, id) is the
/// 3-minute default.
UserProfile make_streamer(UserId id, DurationMs chunk_period);

/// Streaming-heavy population for the multi-radio figure: two media
/// streamers with different chunk shaping (3 min vs. 8 min — the
/// EStreamer tradeoff in one fleet) plus a podcast commuter whose bulk
/// episode downloads are the classic Wi-Fi offload candidate.
std::vector<UserProfile> streaming_population();

}  // namespace netmaster::synth
