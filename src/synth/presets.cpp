#include "synth/presets.hpp"

#include <cmath>

#include "common/error.hpp"

namespace netmaster::synth {

namespace {

using Curve = std::array<double, kHoursPerDay>;

/// Builds an intensity curve from (hour, value) anchor points with
/// linear interpolation between anchors (flat before the first and
/// after the last anchor).
Curve curve_from_anchors(
    std::initializer_list<std::pair<int, double>> anchors) {
  Curve c{};
  NM_REQUIRE(anchors.size() >= 2, "need at least two anchors");
  auto it = anchors.begin();
  auto next = std::next(it);
  for (int h = 0; h < kHoursPerDay; ++h) {
    while (next != anchors.end() && next->first <= h) {
      it = next;
      ++next;
    }
    if (h <= it->first || next == anchors.end()) {
      c[h] = it->second;
    } else {
      const double span = next->first - it->first;
      const double frac = (h - it->first) / span;
      c[h] = it->second + frac * (next->second - it->second);
    }
  }
  return c;
}

Curve scaled(const Curve& c, double factor) {
  Curve out = c;
  for (auto& v : out) v *= factor;
  return out;
}

/// Morning-heavy affinity for news-style apps.
Curve morning_affinity() {
  return curve_from_anchors({{0, 0.2}, {6, 1.0}, {8, 3.0}, {10, 1.5},
                             {14, 0.8}, {20, 1.0}, {23, 0.3}});
}

/// Evening-heavy affinity for video/entertainment apps.
Curve evening_affinity() {
  return curve_from_anchors({{0, 0.5}, {6, 0.1}, {12, 0.5}, {18, 1.5},
                             {21, 3.0}, {23, 1.5}});
}

AppProfile app(const char* name, double weight, double fg_net_prob,
               SyncStyle style = SyncStyle::kNone,
               DurationMs interval = 0) {
  AppProfile a;
  a.name = name;
  a.usage_weight = weight;
  a.fg_net_prob = fg_net_prob;
  a.sync_style = style;
  a.sync_interval_ms = interval;
  return a;
}

/// Restricts a user to a subset of apps: everything not in `kept` loses
/// both its foreground weight and its background sync (apps that are
/// never opened or signed into do not sync either — this is what makes
/// the paper's "8 of 23 apps have network activities" observation hold
/// per user).
void keep_only(UserProfile& user, std::initializer_list<int> kept) {
  std::vector<bool> keep(user.apps.size(), false);
  for (int i : kept) keep[static_cast<std::size_t>(i)] = true;
  for (std::size_t i = 0; i < user.apps.size(); ++i) {
    if (!keep[i]) {
      user.apps[i].usage_weight = 0.0;
      user.apps[i].sync_style = SyncStyle::kNone;
    }
  }
}

}  // namespace

std::vector<AppProfile> standard_app_population() {
  std::vector<AppProfile> apps;
  apps.reserve(23);

  // Index 0: the dominant messenger (the paper's com.tencent.mm, 59% of
  // user 3's launches). Push keepalives + message arrivals.
  apps.push_back(app("im.messenger", 10.0, 0.9, SyncStyle::kPush,
                     24 * kMsPerMinute));
  apps.push_back(app("browser", 3.0, 0.95));
  // Contacts/phone/settings occasionally sync or check connectivity —
  // the paper's Fig. 5 lists all three among the networked apps.
  apps.push_back(app("contacts", 1.5, 0.15));
  apps.push_back(app("phone", 1.5, 0.15));
  apps.push_back(app("settings", 0.5, 0.15));
  apps.push_back(app("docs", 0.8, 0.6));
  apps.push_back(
      app("network.assistant", 0.5, 0.3, SyncStyle::kPeriodic,
          2 * kMsPerHour));
  apps.push_back(
      app("email", 1.0, 0.8, SyncStyle::kPeriodic, 45 * kMsPerMinute));

  AppProfile news = app("news", 1.0, 0.85, SyncStyle::kPeriodic,
                        90 * kMsPerMinute);
  news.hour_affinity = morning_affinity();
  apps.push_back(news);

  apps.push_back(app("maps", 0.5, 0.85));
  apps.push_back(app("music", 0.8, 0.4));

  AppProfile video = app("video", 0.6, 0.95);
  video.hour_affinity = evening_affinity();
  video.fg_bytes_mu = 12.0;  // exp(12) ~ 160 kB median: streaming chunks
  apps.push_back(video);

  apps.push_back(app("social.feed", 1.5, 0.9, SyncStyle::kPush,
                     60 * kMsPerMinute));
  apps.push_back(app("game.casual", 1.0, 0.25));
  apps.push_back(app("camera", 0.5, 0.0));
  apps.push_back(app("gallery", 0.4, 0.0));
  apps.push_back(app("calculator", 0.2, 0.0));
  apps.push_back(app("weather", 0.3, 0.7, SyncStyle::kPeriodic,
                     4 * kMsPerHour));
  apps.push_back(app("appstore", 0.3, 0.5, SyncStyle::kPeriodic,
                     8 * kMsPerHour));
  apps.push_back(app("clock", 0.2, 0.0));
  apps.push_back(app("calendar", 0.3, 0.1));
  apps.push_back(app("sms", 1.0, 0.05));
  apps.push_back(app("banking", 0.2, 0.9));

  NM_ASSERT(apps.size() == 23, "standard population must have 23 apps");
  return apps;
}

UserProfile make_user(Archetype archetype, UserId id) {
  NM_REQUIRE(static_cast<int>(archetype) >= 0 &&
                 archetype <= Archetype::kPodcastCommuter,
             "unknown archetype");
  UserProfile user;
  user.id = id;
  user.apps = standard_app_population();

  // The curves below are deliberately *spiky* and phase-shifted between
  // archetypes: real users concentrate usage in a few personal hours,
  // which is why the paper's cross-user Pearson averages only 0.1353
  // while each user's own days correlate at 0.8+.
  switch (archetype) {
    case Archetype::kOfficeWorker:
      user.name = "office-worker";
      // Phone lives in the pocket during work; lunch and evening spikes.
      user.weekday_intensity = curve_from_anchors(
          {{0, 0.2}, {6, 0.2}, {7, 14.0}, {8, 4.0}, {11, 2.0}, {12, 30.0},
           {13, 4.0}, {17, 2.0}, {19, 8.0}, {20, 34.0}, {22, 10.0},
           {23, 1.0}});
      user.weekend_intensity = curve_from_anchors(
          {{0, 1.0}, {7, 0.5}, {10, 14.0}, {13, 8.0}, {16, 6.0},
           {20, 22.0}, {23, 3.0}});
      user.day_noise_sigma = 0.20;
      user.presence_c = 5.0;
      break;

    case Archetype::kStudent:
      user.name = "student";
      // Between-lecture checking and a long late-night block.
      user.weekday_intensity = curve_from_anchors(
          {{0, 10.0}, {1, 6.0}, {3, 0.3}, {9, 0.5}, {10, 16.0}, {11, 3.0},
           {14, 3.0}, {15, 18.0}, {16, 4.0}, {21, 6.0}, {22, 26.0},
           {23, 16.0}});
      user.weekend_intensity = curve_from_anchors(
          {{0, 14.0}, {3, 1.0}, {11, 1.0}, {13, 12.0}, {17, 8.0},
           {22, 22.0}, {23, 18.0}});
      user.day_noise_sigma = 0.28;
      user.presence_c = 6.5;
      break;

    case Archetype::kNightOwl:
      user.name = "night-owl";
      user.weekday_intensity = curve_from_anchors(
          {{0, 26.0}, {2, 12.0}, {4, 1.0}, {5, 0.2}, {13, 0.5}, {15, 4.0},
           {18, 3.0}, {21, 10.0}, {22, 24.0}, {23, 28.0}});
      user.weekend_intensity = curve_from_anchors(
          {{0, 30.0}, {3, 14.0}, {5, 0.5}, {14, 1.0}, {18, 4.0},
           {22, 26.0}, {23, 30.0}});
      user.day_noise_sigma = 0.25;
      user.presence_c = 6.0;
      // The Fig. 5 subject: only 8 apps ever used, messenger dominant.
      keep_only(user, {0, 1, 2, 3, 4, 5, 6, 7});
      user.apps[0].usage_weight = 12.5;  // ~59% of launches
      break;

    case Archetype::kCommuter:
      user.name = "commuter";
      // Nothing but the two commute windows and a short lunch glance.
      user.weekday_intensity = curve_from_anchors(
          {{0, 0.1}, {6, 0.3}, {7, 34.0}, {8, 30.0}, {9, 1.5}, {12, 6.0},
           {13, 1.0}, {17, 4.0}, {18, 36.0}, {19, 26.0}, {20, 2.0},
           {23, 0.3}});
      user.weekend_intensity = curve_from_anchors(
          {{0, 0.5}, {9, 0.5}, {11, 10.0}, {14, 6.0}, {17, 8.0},
           {20, 4.0}, {23, 0.5}});
      user.day_noise_sigma = 0.22;
      user.presence_c = 4.5;
      break;

    case Archetype::kRetiree:
      user.name = "retiree";
      // Early riser: morning block, midday nap, afternoon block, early
      // night.
      user.weekday_intensity = curve_from_anchors(
          {{0, 0.1}, {5, 2.0}, {6, 16.0}, {8, 18.0}, {10, 4.0}, {12, 1.0},
           {14, 14.0}, {16, 12.0}, {18, 3.0}, {20, 1.0}, {21, 0.2},
           {23, 0.1}});
      user.weekend_intensity = user.weekday_intensity;  // same rhythm
      user.day_noise_sigma = 0.15;
      user.presence_c = 0.8;  // the most habitual subject (Fig. 4)
      break;

    case Archetype::kHeavyMessenger:
      user.name = "heavy-messenger";
      user.weekday_intensity = curve_from_anchors(
          {{0, 2.0}, {2, 0.3}, {7, 6.0}, {9, 26.0}, {12, 32.0}, {15, 28.0},
           {18, 30.0}, {21, 36.0}, {23, 10.0}});
      user.weekend_intensity = scaled(user.weekday_intensity, 0.9);
      user.day_noise_sigma = 0.30;
      user.presence_c = 4.5;
      user.apps[0].usage_weight = 30.0;
      break;

    case Archetype::kWeekendWarrior:
      user.name = "weekend-warrior";
      user.weekday_intensity = curve_from_anchors(
          {{0, 0.2}, {8, 0.5}, {13, 2.0}, {18, 1.0}, {21, 4.0},
           {23, 0.5}});
      user.weekend_intensity = curve_from_anchors(
          {{0, 4.0}, {3, 0.5}, {9, 6.0}, {11, 24.0}, {15, 30.0},
           {19, 22.0}, {22, 16.0}, {23, 8.0}});
      user.day_noise_sigma = 0.32;
      user.presence_c = 7.0;
      break;

    case Archetype::kLightUser:
      user.name = "light-user";
      user.weekday_intensity = curve_from_anchors(
          {{0, 0.1}, {8, 0.3}, {9, 3.0}, {10, 0.5}, {13, 2.5}, {14, 0.5},
           {19, 1.0}, {20, 4.0}, {21, 1.0}, {23, 0.2}});
      user.weekend_intensity = scaled(user.weekday_intensity, 1.2);
      user.day_noise_sigma = 0.35;
      user.presence_c = 7.0;
      keep_only(user, {0, 1, 3, 7, 21});
      break;

    case Archetype::kMediaStreamer: {
      user.name = "media-streamer";
      // Reliable long evenings at home (the habit hours a presence
      // predictor can bank on) plus a lighter lunch block.
      user.weekday_intensity = curve_from_anchors(
          {{0, 2.0}, {1, 0.3}, {7, 0.5}, {12, 8.0}, {13, 1.5}, {18, 6.0},
           {19, 28.0}, {22, 30.0}, {23, 8.0}});
      user.weekend_intensity = curve_from_anchors(
          {{0, 4.0}, {2, 0.5}, {10, 4.0}, {13, 10.0}, {18, 20.0},
           {21, 32.0}, {23, 10.0}});
      user.day_noise_sigma = 0.18;  // streaming evenings are a ritual
      user.presence_c = 2.0;
      // The long-lived media flow: the player tops up its buffer with
      // one chunk per period even with the screen off (audio keeps
      // playing). Large chunks, one connection per fetch — this is the
      // flow EStreamer-style burst shaping acts on.
      AppProfile stream = app("media.stream", 4.0, 0.95,
                              SyncStyle::kPeriodic, 3 * kMsPerMinute);
      stream.hour_affinity = evening_affinity();
      stream.bg_burst_mean = 1.0;
      stream.bg_bytes_mu = 12.3;  // exp(12.3) ~ 220 kB chunk
      stream.bg_bytes_sigma = 0.3;
      stream.fg_bytes_mu = 12.0;
      user.apps.push_back(stream);
      break;
    }

    case Archetype::kPodcastCommuter: {
      user.name = "podcast-commuter";
      // The commuter rhythm, but the network load is dominated by bulk
      // episode downloads — big deferrable blobs that are the classic
      // Wi-Fi offload candidate.
      user.weekday_intensity = curve_from_anchors(
          {{0, 0.2}, {6, 0.5}, {7, 26.0}, {8, 22.0}, {9, 1.0}, {12, 4.0},
           {17, 3.0}, {18, 28.0}, {19, 20.0}, {21, 10.0}, {23, 0.5}});
      user.weekend_intensity = curve_from_anchors(
          {{0, 1.0}, {9, 1.0}, {10, 12.0}, {14, 8.0}, {19, 14.0},
           {22, 6.0}, {23, 1.0}});
      user.day_noise_sigma = 0.22;
      user.presence_c = 3.0;
      AppProfile pod = app("podcasts", 3.0, 0.9, SyncStyle::kPeriodic,
                           3 * kMsPerHour);
      pod.bg_burst_mean = 1.0;
      pod.bg_bytes_mu = 14.2;  // exp(14.2) ~ 1.5 MB episode
      pod.bg_bytes_sigma = 0.5;
      user.apps.push_back(pod);
      break;
    }
  }
  return user;
}

std::vector<UserProfile> study_population() {
  // User 3 is the Fig. 5 subject (night owl, 8 of 23 apps); user 4 is
  // the Fig. 4 subject (retiree — the most regular day-to-day pattern).
  const Archetype kinds[] = {
      Archetype::kOfficeWorker,   Archetype::kStudent,
      Archetype::kNightOwl,       Archetype::kRetiree,
      Archetype::kCommuter,       Archetype::kHeavyMessenger,
      Archetype::kWeekendWarrior, Archetype::kLightUser,
  };
  std::vector<UserProfile> users;
  UserId id = 1;  // the paper numbers users 1..8
  for (Archetype kind : kinds) users.push_back(make_user(kind, id++));
  return users;
}

std::vector<UserProfile> volunteer_population() {
  return {make_user(Archetype::kOfficeWorker, 1),
          make_user(Archetype::kStudent, 2),
          make_user(Archetype::kHeavyMessenger, 3)};
}

UserProfile make_streamer(UserId id, DurationMs chunk_period) {
  NM_REQUIRE(chunk_period > 0, "chunk period must be positive");
  UserProfile user = make_user(Archetype::kMediaStreamer, id);
  AppProfile& stream = user.apps.back();
  NM_ASSERT(stream.name == "media.stream",
            "streamer profile must end with the media flow");
  // Burst shaping at fixed bitrate: scale the chunk size with the
  // period so mean bytes/s of the flow are invariant. For a log-normal
  // the mean scales as exp(mu), so the period ratio shifts mu.
  stream.bg_bytes_mu +=
      std::log(static_cast<double>(chunk_period) /
               static_cast<double>(stream.sync_interval_ms));
  stream.sync_interval_ms = chunk_period;
  return user;
}

std::vector<UserProfile> streaming_population() {
  return {make_streamer(1, 3 * kMsPerMinute),
          make_streamer(2, 8 * kMsPerMinute),
          make_user(Archetype::kPodcastCommuter, 3)};
}

}  // namespace netmaster::synth
