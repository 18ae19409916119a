#include "analog/signature.hpp"

#include <algorithm>

namespace analog {

EcuSignature EcuSignature::under(const Environment& env) const {
  // The ECU's own temperature follows the ambient excursion scaled by its
  // mounting-dependent coupling.
  const double dt =
      temperature_coupling * (env.temperature - kReferenceTemperature).value();
  const double dv = (env.battery - kReferenceBattery).value();

  EcuSignature eff = *this;
  eff.dominant +=
      units::Volts{dominant_temp_coeff_v_per_c * dt + dominant_vbat_coeff * dv};
  const double freq_scale = std::max(0.2, 1.0 + freq_temp_coeff_per_c * dt);
  eff.drive.natural_freq_hz *= freq_scale;
  eff.release.natural_freq_hz *= freq_scale;
  return eff;
}

}  // namespace analog
